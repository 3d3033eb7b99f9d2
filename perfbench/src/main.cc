/**
 * @file
 * perfbench: the repository benchmark's program.  perfbench/run.py
 * builds it and passes its own arguments through, plus the work
 * directory:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir>
 *   perfbench --work-dir <dir> --print-digests <seed>...
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics (end-to-end untraced, per-layer traced).
 * Exit status is 0 only when every output check passed.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "common/parse.hh"

using namespace perfbench;

namespace {

struct Workload
{
    const char *name;
    void (*run)(const Options &, Tracer &, Outcome &);
};

constexpr Workload workloads[] = {
    {"sweep_window", runSweepWindow},
    {"sweep_learned", runSweepLearned},
    {"suite_gen", runSuiteGen},
    {"serve_open", runServeOpen},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n"
                 "       perfbench --work-dir <dir> --print-digests "
                 "<seed>...\n");
    return 2;
}

/** Print expected.hh rows for @p seeds. */
int
printDigests(Options opts, const std::vector<std::uint64_t> &seeds)
{
    for (std::uint64_t seed : seeds) {
        opts.seed = seed;
        warmSuiteCache(opts);
        const auto suite = loadSuite(opts);
        std::printf("    {%#llxull, %#llxull, %#llxull, %#llxull},\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(suiteDigest(suite)),
                    static_cast<unsigned long long>(sweepDigest(suite, false)),
                    static_cast<unsigned long long>(sweepDigest(suite, true)));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::vector<std::uint64_t> digest_seeds;
    bool print_digests = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        double x = 0;
        if (arg == "--print-digests") {
            print_digests = true;
            for (; i + 1 < argc && ccp::parseU64(argv[i + 1], n, 0); ++i)
                digest_seeds.push_back(n);
            continue;
        }
        if (!value)
            return usage();
        ++i;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed" && ccp::parseU64(value, n, 0)) {
            opts.seed = n;
        } else if (arg == "--seconds" && ccp::parseDouble(value, x) &&
                   x > 0 && x <= 600) {
            opts.seconds = x;
        } else if (arg == "--trace" &&
                   (std::strcmp(value, "0") == 0 ||
                    std::strcmp(value, "1") == 0)) {
            opts.trace = value[0] == '1';
        } else if (arg == "--work-dir") {
            opts.workDir = value;
        } else {
            return usage();
        }
    }
    if (opts.workDir.empty())
        return usage();
    // The sweeps run paperSpace()'s default grids, which these
    // switches would widen.
    ::unsetenv("CCP_FULL_PAS");
    ::unsetenv("CCP_FULL_PERC");

    std::filesystem::create_directories(opts.workDir);
    if (print_digests)
        return printDigests(opts, digest_seeds);

    const Workload *workload = nullptr;
    for (const auto &w : workloads)
        if (opts.workload == w.name)
            workload = &w;
    if (!workload)
        return usage();

    const std::uint64_t run_id =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^ nowNs();
    Tracer tracer(run_id);
    tracer.setEnabled(opts.trace);
    Outcome out;
    workload->run(opts, tracer, out);

    if (opts.trace) {
        const std::string dir = opts.workDir + "/spans";
        std::filesystem::create_directories(dir);
        char file[160];
        std::snprintf(file, sizeof(file), "/%s-seed%llx-%016llx.jsonl",
                      workload->name,
                      static_cast<unsigned long long>(opts.seed),
                      static_cast<unsigned long long>(run_id));
        if (!tracer.write(dir + file))
            std::fprintf(stderr, "cannot write spans to %s%s\n",
                         dir.c_str(), file);
    }

    // A metric that is not a number (say an infinite p99 from missing
    // responses) is a broken measurement, never a good one.
    const Metrics &metrics = opts.trace ? out.layers : out.endToEnd;
    for (const auto &name : metrics.nonFinite()) {
        std::fprintf(stderr, "[%s] metric %s is not finite\n",
                     workload->name, name.c_str());
        ++out.failed;
    }

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
