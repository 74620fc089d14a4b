/**
 * @file
 * HE op-DAG IR: the plan representation the static certifier runs on.
 *
 * A HeDag is a small acyclic graph of homomorphic operations — every
 * op PimHeSystem and the BFV Evaluator expose (add, sub, negate,
 * plain-operand ops, scalar mul, full BFV multiply/square with
 * relinearisation, the fused (a+b)*c chain, and fan-in tree
 * reduction). Negacyclic convolution does not appear as its own node:
 * in the HE semantics it is the substrate of Mul/Square/MulPlain, and
 * the cost layer (plan_cost.h) counts the convolutions each such node
 * expands into.
 *
 * Nodes reference earlier node ids only, so a builder-constructed
 * graph is acyclic by construction; arity and operand existence are
 * checked at build time. Output nodes mark decryption points — the
 * places the noise certifier (noise.h) must prove a positive noise
 * budget for.
 *
 * The IR is deliberately value-free: no ciphertexts, plaintexts or
 * keys live here (plain operands are referenced by slot index, scalar
 * multipliers by value because the noise bound depends on them), so
 * the same plan can be certified per parameter set and then bound to
 * concrete ciphertexts by PimHeSystem's plan runner.
 */

#ifndef PIMHE_ANALYSIS_HE_DAG_H
#define PIMHE_ANALYSIS_HE_DAG_H

#include <cstdint>
#include <string>
#include <vector>

namespace pimhe {
namespace analysis {

/** Homomorphic operation kinds the certifier understands. */
enum class HeOp : std::uint8_t
{
    Input,      //!< fresh 2-component ciphertext (encryption noise)
    Add,        //!< ct + ct, componentwise in R_q
    Sub,        //!< ct - ct
    Negate,     //!< -ct
    AddPlain,   //!< ct + Delta*m' (touches c0 only)
    MulPlain,   //!< ct * m' (componentwise negacyclic products)
    MulScalar,  //!< ct * alpha, alpha a plaintext scalar
    Mul,        //!< BFV tensor product + relinearisation
    Square,     //!< BFV square + relinearisation
    FusedAddMul,//!< (a + b) * c: an add launch, then a BFV product
    Reduce,     //!< fan-in homomorphic sum (tree reduction)
    Output,     //!< decryption point: budget obligation attaches here
};

const char *toString(HeOp op);

/** Node id; nodes only ever reference strictly smaller ids. */
using NodeId = std::uint32_t;

/** One DAG node. */
struct HeNode
{
    HeOp op = HeOp::Input;
    std::vector<NodeId> args; //!< operands (Reduce: whole fan-in list)
    std::uint64_t scalar = 0; //!< MulScalar multiplier
    std::uint32_t plainIdx = 0; //!< AddPlain/MulPlain plaintext slot
    std::string label;        //!< optional tag surfaced in witnesses
};

/**
 * Builder + container for one homomorphic plan. All build methods
 * validate arity and operand ids and panic on misuse (a malformed
 * plan is a programming error, not a certification failure — the
 * certifier handles *semantic* rejection).
 */
class HeDag
{
  public:
    NodeId input(std::string label = "");
    NodeId add(NodeId a, NodeId b);
    NodeId sub(NodeId a, NodeId b);
    NodeId negate(NodeId a);
    NodeId addPlain(NodeId a, std::uint32_t plain_idx);
    NodeId mulPlain(NodeId a, std::uint32_t plain_idx);
    NodeId mulScalar(NodeId a, std::uint64_t scalar);
    NodeId mul(NodeId a, NodeId b);
    NodeId square(NodeId a);
    /** (a + b) * c in one logical step (PimHeSystem fuses the add). */
    NodeId fusedAddMul(NodeId a, NodeId b, NodeId c);
    NodeId reduce(std::vector<NodeId> terms);
    /** Mark a node as a decryption point; returns the Output node. */
    NodeId output(NodeId a);

    const std::vector<HeNode> &nodes() const { return nodes_; }
    std::size_t size() const { return nodes_.size(); }
    const HeNode &operator[](NodeId id) const { return nodes_[id]; }

    /** Ids of Input nodes, in creation order (plan-runner binding). */
    const std::vector<NodeId> &inputs() const { return inputs_; }
    /** Ids of Output nodes, in creation order. */
    const std::vector<NodeId> &outputs() const { return outputs_; }

    /** Multiplicative depth of a node (Mul/Square/FusedAddMul levels
     *  on the deepest path from any input). */
    std::size_t mulDepth(NodeId id) const;
    /** Maximum multiplicative depth over the whole plan. */
    std::size_t mulDepth() const;

    /** Per-node flag: does this node reach some Output node? Nodes
     *  that do not are dead w.r.t. decryption and carry no budget
     *  obligation. */
    std::vector<bool> reachesOutput() const;

    /** "node 7 'acc' (mul, depth 2)" — the witness spelling. */
    std::string describe(NodeId id) const;

  private:
    NodeId push(HeNode node, std::size_t arity);

    std::vector<HeNode> nodes_;
    std::vector<NodeId> inputs_;
    std::vector<NodeId> outputs_;
};

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_HE_DAG_H
