/**
 * @file
 * Footprint-coverage audit: every make*Kernel factory defined in
 * src/pimhe must have a row in the kernel registry (and therefore a
 * footprint builder with a parametric access model), and every
 * registered plan must actually carry that model. The factory list is
 * recovered from the sources themselves, so shipping a new kernel
 * without registering it fails this test rather than silently
 * shrinking prover coverage.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "pimhe/kernel_registry.h"

namespace pimhe {
namespace {

using namespace pimhe::pimhe_kernels;

/**
 * The factory a line defines, or "" when it defines none: a line that
 * starts with `make`, continues with identifier characters ending in
 * `Kernel`, then optional whitespace and `(`. That is a definition,
 * not a call site: the headers put the return type on the preceding
 * line, so a defined name is at column 0.
 */
std::string
factoryDefinedBy(const std::string &line)
{
    if (line.rfind("make", 0) != 0)
        return "";
    std::size_t end = 4;
    while (end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[end])) ||
            line[end] == '_'))
        ++end;
    const std::string name = line.substr(0, end);
    if (!name.ends_with("Kernel"))
        return "";
    std::size_t open = end;
    while (open < line.size() &&
           std::isspace(static_cast<unsigned char>(line[open])))
        ++open;
    return open < line.size() && line[open] == '(' ? name : "";
}

/** All make*Kernel factory names defined in src/pimhe headers. */
std::set<std::string>
factoriesInSources()
{
    const std::filesystem::path dir =
        std::filesystem::path(PIMHE_SOURCE_DIR) / "src" / "pimhe";
    std::set<std::string> out;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".h")
            continue;
        std::ifstream f(entry.path());
        std::string line;
        while (std::getline(f, line)) {
            const std::string name = factoryDefinedBy(line);
            if (!name.empty())
                out.insert(name);
        }
    }
    return out;
}

TEST(KernelRegistry, EveryShippedFactoryIsRegistered)
{
    const auto in_sources = factoriesInSources();
    ASSERT_FALSE(in_sources.empty())
        << "no factories found under " << PIMHE_SOURCE_DIR
        << "/src/pimhe — source scan is broken";

    std::set<std::string> registered;
    for (const auto &family : kernelRegistry())
        registered.insert(family.factory);

    for (const auto &name : in_sources)
        EXPECT_TRUE(registered.count(name))
            << "factory " << name
            << " ships without a registry row: add it to "
               "kernel_registry.h with a footprint builder and a "
               "parametric access model";
    for (const auto &name : registered)
        EXPECT_TRUE(in_sources.count(name))
            << "registry row " << name
            << " has no factory in src/pimhe — stale entry?";
}

TEST(KernelRegistry, EveryPlanCarriesAnAccessModel)
{
    const pim::DpuConfig cfg;
    for (const auto &family : kernelRegistry()) {
        const auto plans = family.plans(cfg, 12);
        EXPECT_FALSE(plans.empty())
            << family.factory << " produced no launch plans";
        for (const auto &plan : plans) {
            EXPECT_TRUE(
                static_cast<bool>(plan.footprint.taskletAccess))
                << family.factory << " [" << plan.params
                << "] footprint has no taskletAccess model — the "
                   "symbolic prover cannot cover it";
            EXPECT_FALSE(plan.footprint.kernel.empty())
                << family.factory;
            EXPECT_GE(plan.footprint.maxTasklets, 1u)
                << family.factory << " [" << plan.params << "]";
            EXPECT_FALSE(plan.footprint.mramRegions.empty())
                << family.factory << " [" << plan.params << "]";
        }
    }
}

TEST(KernelRegistry, EveryFamilyHasAFastPathOrAWaiver)
{
    for (const auto &family : kernelRegistry()) {
        const bool has_builder = static_cast<bool>(family.compiled);
        EXPECT_TRUE(has_builder || !family.fastWaiver.empty())
            << family.factory
            << " has neither a compiled-kernel builder nor an "
               "interpreter-only waiver: add a compiled* factory to "
               "fast_kernels.h or record why the family must stay on "
               "the interpreter";
        if (!has_builder)
            continue;
        const pim::CompiledKernel ck = family.compiled();
        EXPECT_TRUE(static_cast<bool>(ck.interpret))
            << family.factory << " compiled kernel has no interpreter "
                                 "body — shadow mode cannot check it";
        EXPECT_TRUE(static_cast<bool>(ck.fast) || !ck.waiver.empty())
            << family.factory
            << " compiled kernel carries neither a fast body nor a "
               "waiver";
        if (ck.fast) {
            EXPECT_FALSE(ck.outputs.empty())
                << family.factory
                << " fast path declares no semantic output regions — "
                   "shadow mode would compare nothing";
        }
    }
}

TEST(KernelRegistry, TitlesAndTagsAreDistinct)
{
    std::set<std::string> factories, titles;
    for (const auto &family : kernelRegistry()) {
        EXPECT_TRUE(factories.insert(family.factory).second)
            << "duplicate registry row " << family.factory;
        EXPECT_TRUE(titles.insert(family.title).second)
            << "duplicate registry title " << family.title;
    }
}

} // namespace
} // namespace pimhe
