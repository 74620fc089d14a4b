/**
 * @file
 * HE op-DAG IR: the plan representation the static certifier runs on.
 *
 * A HeDag is a small acyclic graph of the homomorphic operations the
 * workloads offload: ciphertext addition, ciphertext x plaintext
 * product, full BFV multiply/square with relinearisation, and fan-in
 * tree reduction — seven ops with Input and Output. Negacyclic
 * convolution does not appear as its own node: in the HE semantics it
 * is the substrate of Mul/Square/MulPlain, and the cost layer
 * (plan_cost.h) counts the convolutions each such node expands into.
 *
 * Nodes reference earlier node ids only, so a builder-constructed
 * graph is acyclic by construction; arity and operand existence are
 * checked at build time. Output nodes mark decryption points — the
 * places the noise certifier (noise.h) must prove a positive noise
 * budget for.
 *
 * The IR is deliberately value-free: no ciphertexts, plaintexts or
 * keys live here (plain operands are referenced by slot index), so
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
    MulPlain,   //!< ct * m' (componentwise negacyclic products)
    Mul,        //!< BFV tensor product + relinearisation
    Square,     //!< BFV square + relinearisation
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
    std::uint32_t plainIdx = 0; //!< MulPlain plaintext slot
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
    NodeId mulPlain(NodeId a, std::uint32_t plain_idx);
    NodeId mul(NodeId a, NodeId b);
    NodeId square(NodeId a);
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

    /** Multiplicative depth of a node (Mul/Square levels on the
     *  deepest path from any input). */
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
    /** mulDepth of nodes 0 .. count - 1, in one forward pass. */
    std::vector<std::size_t> depths(std::size_t count) const;

    std::vector<HeNode> nodes_;
    std::vector<NodeId> inputs_;
    std::vector<NodeId> outputs_;
};

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_HE_DAG_H
