/**
 * @file
 * HeDag construction-time validation and structural queries.
 */

#include "analysis/he_dag.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace pimhe {
namespace analysis {

const char *
toString(HeOp op)
{
    switch (op) {
      case HeOp::Input:
        return "input";
      case HeOp::Add:
        return "add";
      case HeOp::MulPlain:
        return "mulPlain";
      case HeOp::Mul:
        return "mul";
      case HeOp::Square:
        return "square";
      case HeOp::Reduce:
        return "reduce";
      case HeOp::Output:
        return "output";
    }
    return "?";
}

NodeId
HeDag::push(HeNode node, std::size_t arity)
{
    PIMHE_ASSERT(node.args.size() == arity || arity == ~std::size_t{0},
                 "'", toString(node.op), "' expects ", arity,
                 " operand(s), got ", node.args.size());
    const NodeId id = static_cast<NodeId>(nodes_.size());
    for (const NodeId a : node.args)
        PIMHE_ASSERT(a < id, "operand ", a, " of node ", id,
                     " does not exist yet (DAG nodes reference "
                     "earlier ids only)");
    for (const NodeId a : node.args)
        PIMHE_ASSERT(nodes_[a].op != HeOp::Output,
                     "Output nodes are decryption points, not "
                     "operands");
    nodes_.push_back(std::move(node));
    return id;
}

NodeId
HeDag::input(std::string label)
{
    HeNode n;
    n.op = HeOp::Input;
    n.label = std::move(label);
    const NodeId id = push(std::move(n), 0);
    inputs_.push_back(id);
    return id;
}

NodeId
HeDag::add(NodeId a, NodeId b)
{
    return push({HeOp::Add, {a, b}, 0, {}}, 2);
}

NodeId
HeDag::mulPlain(NodeId a, std::uint32_t plain_idx)
{
    return push({HeOp::MulPlain, {a}, plain_idx, {}}, 1);
}

NodeId
HeDag::mul(NodeId a, NodeId b)
{
    return push({HeOp::Mul, {a, b}, 0, {}}, 2);
}

NodeId
HeDag::square(NodeId a)
{
    return push({HeOp::Square, {a}, 0, {}}, 1);
}

NodeId
HeDag::reduce(std::vector<NodeId> terms)
{
    PIMHE_ASSERT(!terms.empty(), "empty reduction");
    return push({HeOp::Reduce, std::move(terms), 0, {}},
                ~std::size_t{0});
}

NodeId
HeDag::output(NodeId a)
{
    const NodeId id = push({HeOp::Output, {a}, 0, {}}, 1);
    outputs_.push_back(id);
    return id;
}

std::vector<std::size_t>
HeDag::depths(std::size_t count) const
{
    // Nodes reference earlier ids only, so one forward pass suffices.
    std::vector<std::size_t> depth(count, 0);
    for (NodeId i = 0; i < count; ++i) {
        std::size_t d = 0;
        for (const NodeId a : nodes_[i].args)
            d = std::max(d, depth[a]);
        const HeOp op = nodes_[i].op;
        if (op == HeOp::Mul || op == HeOp::Square)
            ++d;
        depth[i] = d;
    }
    return depth;
}

std::size_t
HeDag::mulDepth(NodeId id) const
{
    PIMHE_ASSERT(id < nodes_.size(), "no such node ", id);
    return depths(id + 1)[id];
}

std::size_t
HeDag::mulDepth() const
{
    const std::vector<std::size_t> depth = depths(nodes_.size());
    return depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
}

std::vector<bool>
HeDag::reachesOutput() const
{
    std::vector<bool> reaches(nodes_.size(), false);
    for (std::size_t i = nodes_.size(); i-- > 0;) {
        const HeNode &n = nodes_[i];
        if (n.op == HeOp::Output)
            reaches[i] = true;
        if (reaches[i])
            for (const NodeId a : n.args)
                reaches[a] = true;
    }
    return reaches;
}

std::string
HeDag::describe(NodeId id) const
{
    PIMHE_ASSERT(id < nodes_.size(), "no such node ", id);
    const HeNode &n = nodes_[id];
    std::ostringstream os;
    os << "node " << id;
    if (!n.label.empty())
        os << " '" << n.label << "'";
    os << " (" << toString(n.op);
    if (n.op == HeOp::Reduce)
        os << " fan-in " << n.args.size();
    os << ", depth " << mulDepth(id) << ")";
    return os.str();
}

} // namespace analysis
} // namespace pimhe
