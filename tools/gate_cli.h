/**
 * @file
 * The one harness behind the gate CLIs, pim_prove and pim_certify:
 * check counting and its line policy, the ordered --inject table (KIND
 * runs one entry, "all" runs every entry in table order), the summary
 * line, --out writing through obs::emitArtifact, and the exit status:
 *
 *   0  clean;
 *   1  a violation was found (a FAIL line);
 *   2  the run cannot vouch for its result: an unknown --inject kind,
 *      an artifact that cannot be written, or a BAD line (a seeded
 *      violation that did not fire, or a must-pass check that failed).
 *
 * tools/CMakeLists.txt pins the convention for every table entry.
 */

#ifndef PIMHE_TOOLS_GATE_CLI_H
#define PIMHE_TOOLS_GATE_CLI_H

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "obs/artifact.h"

namespace pimhe {
namespace gate {

/** One seeded violation class: `seed` runs checks, one must FAIL. */
struct Injection
{
    std::string kind;
    std::function<void()> seed;
};

class GateCli
{
  public:
    /** Reads --verbose, --inject KIND and --out FILE; `checks` and
     *  `failures` name the counts in the summary line. */
    GateCli(std::string tool, const CliArgs &args,
            std::string checks = "checks",
            std::string failures = "violation(s)")
        : tool_(std::move(tool)), checks_(std::move(checks)),
          failures_(std::move(failures)),
          verbose_(args.getBool("verbose", false)),
          inject_(args.getString("inject", "")),
          out_(args.getString("out", ""))
    {}

    bool verbose() const { return verbose_; }
    int checked() const { return checked_; }
    int failed() const { return failed_; }
    std::string log() const { return log_.str(); }

    /** Print to stdout and keep for the --out artifact. */
    void
    emit(const std::string &text)
    {
        std::cout << text;
        log_ << text;
    }

    /**
     * Count one check. A violation prints "FAIL " and the whole
     * `report`; a pass prints `pass` and the report's first line, or
     * the whole report under --verbose. An empty `pass` keeps a pass
     * silent unless --verbose.
     */
    void
    check(bool ok, const std::string &report,
          const std::string &pass = "ok   ")
    {
        ++checked_;
        if (!ok) {
            ++failed_;
            emit("FAIL " + report);
        } else if (verbose_) {
            emit((pass.empty() ? "ok   " : pass) + report);
        } else if (!pass.empty()) {
            emit(pass + report.substr(0, report.find('\n') + 1));
        }
    }

    /** check() for an analysis report (anything with ok/summary). */
    template <typename Report>
    void
    check(const Report &r)
    {
        check(r.ok(), r.summary());
    }

    /** A check the run must pass to vouch for its result. */
    void
    vouch(bool ok, const std::string &report)
    {
        if (ok)
            return check(true, report);
        bad_ = true;
        emit("BAD  " + report);
    }

    /** Write an artifact; a failure is reported and exits 2. */
    bool
    write(const std::string &path, const std::string &content,
          obs::ArtifactValidator validate = nullptr)
    {
        std::string err;
        if (obs::emitArtifact(path, content, validate, &err))
            return true;
        std::cerr << tool_ << ": " << err << "\n";
        bad_ = true;
        return false;
    }

    /**
     * The whole run: refuse an unknown --inject kind before anything
     * runs, then `sweep`, the selected `table` entries, the summary
     * line and --out (`artifact()`, or the log). Returns the status.
     */
    int
    run(const std::function<void()> &sweep,
        const std::vector<Injection> &table,
        const std::function<std::string()> &artifact = {})
    {
        std::vector<const Injection *> selected;
        for (const Injection &entry : table)
            if (inject_ == "all" || inject_ == entry.kind)
                selected.push_back(&entry);
        if (!inject_.empty() && selected.empty()) {
            std::cerr << tool_ << ": unknown --inject kind '" << inject_
                      << "'\n";
            return 2;
        }

        sweep();
        if (!inject_.empty())
            emit("== injected violations (" + inject_ + ")\n");
        for (const Injection *entry : selected) {
            const int before = failed_;
            entry->seed();
            if (failed_ == before)
                vouch(false, "injection '" + entry->kind +
                                 "' produced no violation\n");
        }

        emit(std::to_string(checked_) + " " + checks_ + ", " +
             std::to_string(failed_) + " " + failures_ + "\n");
        if (!out_.empty())
            write(out_, artifact ? artifact() : log());
        return bad_ ? 2 : failed_ > 0 ? 1 : 0;
    }

  private:
    std::string tool_, checks_, failures_;
    bool verbose_;
    std::string inject_, out_;
    int checked_ = 0;
    int failed_ = 0;
    bool bad_ = false;
    std::ostringstream log_;
};

} // namespace gate
} // namespace pimhe

#endif // PIMHE_TOOLS_GATE_CLI_H
