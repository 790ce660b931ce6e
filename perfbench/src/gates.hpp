#pragma once

/**
 * @file
 * Correctness gates. Every engine run and every fleet swarm the
 * benchmark makes is one operation; an operation fails when any gate
 * below rejects it, and the failures are what `failed` counts.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/oracle.hpp"
#include "platform/fleet.hpp"
#include "platform/scenario.hpp"

namespace perfbench {

/** Attempted/failed operations plus the reason for each failure. */
class Ledger
{
  public:
    /** Count one operation; a non-empty @p why marks it failed. */
    void record(const std::string& why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string>& reasons() const { return reasons_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/**
 * One platform::run result: the sharded engine ran with the requested
 * shard count, and the checksum equals @p expected when one is known.
 * Returns "" when every check holds.
 */
std::string check_run(const hivemind::platform::RunResult& r,
                      int shards_requested,
                      std::optional<std::uint64_t> expected);

/** check_run for a fleet record, plus `ok`. */
std::string check_record(const hivemind::platform::SwarmRecord& rec,
                         int shards_requested,
                         std::optional<std::uint64_t> expected);

/** A checksum as 16 hex digits. */
std::string hex(std::uint64_t v);

/** OracleSuite::audit on @p audit; "" when clean. */
std::string check_audit(const hivemind::fault::RunAudit& audit);

}  // namespace perfbench
