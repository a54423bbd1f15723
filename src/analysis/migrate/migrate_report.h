/**
 * @file
 * Rendering of migration scorecards: human-readable text, the
 * "vespera-lint-migrate/v1" JSON schema, and the committed baseline
 * ratchet ("vespera-lint-migrate-baseline/v1") under which functional
 * parity and the achieved fraction of hand-written performance can
 * only improve.
 */

#ifndef VESPERA_ANALYSIS_MIGRATE_MIGRATE_REPORT_H
#define VESPERA_ANALYSIS_MIGRATE_MIGRATE_REPORT_H

#include "analysis/migrate/scorecard.h"
#include "analysis/report.h"
#include "common/json.h"

namespace vespera::analysis {

/** True for the four migration-aware rules (passes_port.cc). */
bool isMigrationRule(const std::string &rule);

/** Full scorecard run as JSON (schema "vespera-lint-migrate/v1"). */
json::Value migrateReportJson(const std::vector<MigrateEntry> &entries);

/** Human-readable scorecard. `verbose` shows every finding even for
 *  kernels at full parity and fraction. */
std::string migrateReportText(const std::vector<MigrateEntry> &entries,
                              bool verbose);

/**
 * Baseline ratchet (schema "vespera-lint-migrate-baseline/v1"): per
 * kernel, parity and achieved fraction. checkMigrateBaseline fails
 * when a baselined kernel loses parity, when a kernel's achieved
 * fraction drops more than `fractionSlack` below its baselined value,
 * or when a kernel absent from the baseline fails parity (new corpus
 * entries must land correct). Improvements pass — regenerate with
 * --update-baseline to ratchet them in. A document that is not a
 * migrate baseline (wrong schema, a kernel without a boolean `parity`
 * and a numeric `achieved_fraction`) fails with `malformed` set.
 */
json::Value migrateBaselineJson(const std::vector<MigrateEntry> &entries);

BaselineCheck
checkMigrateBaseline(const std::vector<MigrateEntry> &entries,
                     const json::Value &baseline,
                     double fractionSlack = 0.02);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_MIGRATE_MIGRATE_REPORT_H
