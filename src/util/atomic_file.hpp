/**
 * @file
 * Whole-file replacement through a rename, shared by every writer of a
 * file that another process may read while it changes: the unit-cache
 * entries, the run-health and serve status.json, and the OpenMetrics
 * snapshots. A reader sees the old file or the new one, never a torn
 * one.
 */

#ifndef SOLARCORE_UTIL_ATOMIC_FILE_HPP
#define SOLARCORE_UTIL_ATOMIC_FILE_HPP

#include <string>
#include <string_view>

namespace solarcore::util {

/**
 * Write @p bytes to a temp file beside @p path, then rename it over
 * @p path. Each call stages under a name no other writer uses at the
 * same time (this process's id and a per-process counter), so
 * concurrent writers of one path never rename each other's file: the
 * last rename wins. On failure the temp file is removed, @p error says
 * which step failed, and false is returned.
 */
bool writeFileAtomically(const std::string &path, std::string_view bytes,
                         std::string &error);

} // namespace solarcore::util

#endif // SOLARCORE_UTIL_ATOMIC_FILE_HPP
