#include "gates.hpp"

#include <cstdio>

namespace perfbench {

namespace platform = hivemind::platform;

void
Ledger::record(const std::string& why)
{
    ++attempted_;
    if (why.empty())
        return;
    ++failed_;
    reasons_.push_back(why);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
check_run(const platform::RunResult& r, int shards_requested,
          std::optional<std::uint64_t> expected)
{
    if (r.engine_used != platform::EngineChoice::Sharded)
        return std::string("engine_used is ") +
               platform::to_string(r.engine_used) + ", not sharded";
    if (r.shards_used != shards_requested)
        return "shards_used " + std::to_string(r.shards_used) +
               " != requested " + std::to_string(shards_requested);
    if (expected && r.checksum != *expected)
        return "checksum " + hex(r.checksum) + " != reference " +
               hex(*expected);
    return "";
}

std::string
check_record(const platform::SwarmRecord& rec, int shards_requested,
             std::optional<std::uint64_t> expected)
{
    const std::string who =
        rec.tenant + "#" + std::to_string(rec.replica) + ": ";
    if (!rec.ok)
        return who + "record not ok: " + rec.error;
    const std::string why = check_run(rec.result, shards_requested, expected);
    return why.empty() ? why : who + why;
}

std::string
check_audit(const hivemind::fault::RunAudit& audit)
{
    const auto violations = hivemind::fault::OracleSuite{}.audit(audit);
    return violations.empty()
               ? ""
               : "oracle: " + hivemind::fault::violations_to_string(violations);
}

}  // namespace perfbench
