/**
 * @file
 * String-keyed policy factory tying the baseline library and NUcache
 * together for the experiment harness.
 *
 * Spec grammar:  name[:key=value[,key=value...]]
 *   lru | random | nru | srrip | brrip | drrip | dip | tadip |
 *   ucp | pipp | nucache | nucache-topk | nucache-all | nucache-none
 *
 * Keys: epoch (UCP/PIPP accesses, NUcache misses); NUcache variants
 * also take d (DeliWays), pool (candidate PCs), maxsel, topk, board
 * (victim-board entries) and shift (monitor set-sampling shift);
 * SHiP takes shct (log2 SHCT entries), Hawkeye shift.  Other
 * policies take no options.
 */

#ifndef NUCACHE_SIM_POLICIES_HH
#define NUCACHE_SIM_POLICIES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/replacement.hh"

namespace nucache
{

/** A policy spec split into its base name and numeric options. */
struct PolicySpec
{
    std::string name;
    std::map<std::string, std::uint64_t> options;
};

/**
 * Parse and validate @p spec without ever exiting the process: the
 * base name must be a recognized policy and every option one of that
 * policy's keys, written "key=digits", with a value in the key's
 * range.  When @p llc_ways and @p cores are given (non-zero) the
 * values are also checked against that LLC and core count: NUcache's
 * DeliWays must leave a MainWay, and UCP and PIPP need a way per
 * core.  A spec that passes is safe to hand to makePolicy() for that
 * hierarchy from a server that must not fatal() on untrusted input.
 * @param err on failure, filled with what was wrong.
 * @return whether @p spec is valid; @p out then holds it.
 */
bool parsePolicySpec(const std::string &spec, PolicySpec &out,
                     std::string &err, std::uint32_t llc_ways = 0,
                     std::uint32_t cores = 0);

/** @return a fresh policy instance for @p spec; fatal() on specs
 *  parsePolicySpec() rejects. */
std::unique_ptr<ReplacementPolicy> makePolicy(const std::string &spec);

/** @return the specs the evaluation compares (paper's Figure 4-6 set). */
const std::vector<std::string> &evaluationPolicySet();

/** @return all recognized base policy names. */
const std::vector<std::string> &allPolicyNames();

} // namespace nucache

#endif // NUCACHE_SIM_POLICIES_HH
