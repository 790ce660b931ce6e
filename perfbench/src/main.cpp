/**
 * @file
 * perfbench: the simulator's repeatable benchmark.
 *
 *   hm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                [--out-dir DIR] [--git-commit SHA] [--src-digest HEX]
 *
 * Prints detail lines, then as its last line one JSON object with
 * `correct`, `attempted`, `failed` and `metrics` (name -> value, unit).
 * `--trace 0` reports the end-to-end metrics, `--trace 1` the
 * per-layer ones and writes the span trace as JSONL into DIR.
 * See perfbench/README.md for the workloads and the metric map.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "hm_perfbench: %s\n"
                 "usage: hm_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-commit SHA] "
                 "[--src-digest HEX]\n",
                 why);
    std::exit(2);
}

/** platform::run honours HIVEMIND_LEGACY_ENGINE and
 *  HIVEMIND_GLOBAL_LOOKAHEAD; any HIVEMIND_* variable could change what
 *  is measured, so none may be set. */
std::string
hivemind_env_var()
{
    for (char** e = environ; e && *e; ++e)
        if (std::strncmp(*e, "HIVEMIND_", 9) == 0)
            return std::string(*e).substr(0, std::strcspn(*e, "="));
    return "";
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o;
    std::string out_dir = ".";
    std::string git_commit = "unknown";
    std::string src_digest = "unknown";
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have[0] = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage("--seed needs a non-negative integer");
            have[1] = true;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds needs a positive number");
            have[2] = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = v[0] == '1';
            have[3] = true;
        } else if (a == "--out-dir") {
            out_dir = v;
        } else if (a == "--git-commit") {
            git_commit = v;
        } else if (a == "--src-digest") {
            src_digest = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string& w : perfbench::workload_names())
        known = known || w == o.workload;
    if (!known)
        usage(("unknown workload " + o.workload).c_str());
    if (const std::string var = hivemind_env_var(); !var.empty()) {
        std::fprintf(stderr,
                     "hm_perfbench: refusing to run with %s set; the "
                     "benchmark measures default engine settings only\n",
                     var.c_str());
        return 2;
    }

    using hivemind::util::Json;
    std::printf("env %s\n",
                Json::object()
                    .kv("workload", o.workload)
                    .kv("seed", static_cast<std::uint64_t>(o.seed))
                    .kv("seconds", o.seconds)
                    .kv("trace", o.trace)
                    .kv("nproc", perfbench::usable_cpus())
                    .kv("hw_threads", std::thread::hardware_concurrency())
                    .kv("build_type", PERFBENCH_BUILD_TYPE)
                    .kv("compiler", "g++ " __VERSION__)
                    .kv("git_commit", git_commit)
                    .kv("src_digest", src_digest)
                    .kv("model",
                        "unvalidated at 8192 devices: the repo has no "
                        "reference measurement at this scale, so no model "
                        "error figure is given")
                    .str()
                    .c_str());
    std::fflush(stdout);

    Report rep;
    try {
        rep = perfbench::run_workload(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hm_perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string& n : rep.notes)
        std::printf("note %s\n", n.c_str());

    if (o.trace) {
        const std::string path = out_dir + "/" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".trace.jsonl";
        const std::string jsonl = perfbench::spans_to_jsonl(rep.spans);
        std::ofstream(path) << jsonl;
        std::ifstream back(path);
        std::ostringstream text;
        text << back.rdbuf();
        // The write and re-parse of the trace is one more operation.
        std::string why;
        try {
            if (perfbench::spans_from_jsonl(text.str()) != rep.spans)
                throw std::runtime_error("re-parsed spans differ");
        } catch (const std::exception& e) {
            why = "trace JSONL " + path + ": " + e.what();
        }
        rep.ledger.record(why);
        std::printf("trace %s (%zu spans)\n", path.c_str(), rep.spans.size());
        for (const auto& [name, us] :
             perfbench::self_time_by_name_us(rep.spans))
            std::printf("self_ms %-22s %12.3f\n", name.c_str(), us / 1e3);
    }

    const bool correct =
        rep.ledger.attempted() > 0 && rep.ledger.failed() == 0;
    for (const std::string& why : rep.ledger.reasons())
        std::printf("FAILED %s\n", why.c_str());
    const double attempted = static_cast<double>(rep.ledger.attempted());
    std::printf("failed_share %.6g (%llu of %llu operations)\n",
                attempted > 0 ? rep.ledger.failed() / attempted : 1.0,
                static_cast<unsigned long long>(rep.ledger.failed()),
                static_cast<unsigned long long>(rep.ledger.attempted()));
    Json metrics = Json::object();
    for (const perfbench::Metric& m : rep.metrics) {
        std::printf("metric %-36s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        metrics.kv(m.name,
                   Json::object().kv("value", m.value).kv("unit", m.unit));
    }
    std::printf("%s\n",
                Json::object()
                    .kv("correct", correct)
                    .kv("attempted", rep.ledger.attempted())
                    .kv("failed", rep.ledger.failed())
                    .kv("metrics", metrics)
                    .str()
                    .c_str());
    return 0;
}
