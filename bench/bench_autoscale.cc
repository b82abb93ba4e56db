// Closed-loop autoscaling evaluation (extension; Sinan / DeepScaler
// methodology on top of the paper's estimator). Three policies — reactive
// threshold baseline, predictive DeepRest what-if, and a true-demand oracle —
// drive the capacity-model simulator through three traffic scenarios
// (diurnal at unseen scale, flash crowd, API-mix drift). Reported per cell:
// request-weighted SLO-violation rate vs. provisioned core-hours, the two
// axes an autoscaler trades against each other.
//
// The headline claim this bench gates on (full mode): the predictive policy
// achieves a LOWER violation rate than the reactive baseline at
// equal-or-lower provisioned core-hours on the diurnal and flash-crowd
// scenarios — scaling ahead of the forecast beats chasing the last sample
// without buying the win with over-provisioning.
//
// Flags: --smoke (tiny config, structural exit gates, for ctest)
//        --out <path> (JSON path; default BENCH_autoscale.json)
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/autoscale/scenario.h"
#include "src/eval/autoscale_harness.h"

using namespace deeprest;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_autoscale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  PrintBenchHeader("closed-loop autoscaling (extension)",
                   "reactive vs. DeepRest-predictive vs. oracle across scenarios");
  HarnessConfig config = SocialBenchConfig();
  if (smoke) {
    config.learn_days = 1;
    config.estimator.hidden_dim = 8;
    config.estimator.epochs = 2;
  }
  ExperimentHarness harness(config);
  std::printf("Training the estimator (%zu learn windows)...\n\n", harness.learn_windows());
  const DeepRestEstimator& model = harness.deeprest();

  ScenarioSpec base_scenario;
  base_scenario.days = smoke ? 1 : 2;
  base_scenario.user_scale = 3.0;  // unseen-scale territory: sizing must move

  ClosedLoopConfig loop;
  loop.windows_per_day = config.windows_per_day;
  // Small replica slices relative to the hot components' peak demand, so the
  // replica count (not a monolithic floor) is what tracks the traffic.
  loop.default_capacity_cpu = 10.0;
  loop.policy_config.sizing.min_capacity_cpu = 10.0;
  loop.policy_config.sizing.capacity_step_cpu = 10.0;
  loop.controller.control_interval = 4;
  // Scaling is applied at the tick that opens an interval, so sizing for the
  // interval's own forecast peak already lands capacity before demand does.
  // Extra lookahead would only buy insurance against actuation latency (none
  // here) while holding peak capacity longer on every descent.
  loop.controller.lookahead = 0;
  // The forecast arrives AHEAD of demand, so the predictive policy does not
  // need the reaction slack baked into the shared target utilization.
  // Headroom < 1 runs it hotter: sizing demand*h at target u is sizing at
  // effective utilization u/h (0.60/0.71 ~ 0.845, just under the 0.85 SLO
  // knee). At unseen scale the upper CI is loose insurance the live-evidence
  // floor already covers, so provision for the expected head.
  loop.policy_config.predictive_headroom = 0.71;
  loop.forecast_upper_weight = 0.0;

  std::map<std::string, std::map<std::string, ClosedLoopResult>> results;
  std::vector<std::vector<std::string>> rows;
  for (ScenarioKind scenario_kind : AllScenarioKinds()) {
    ScenarioSpec scenario = base_scenario;
    scenario.kind = scenario_kind;
    const std::string scenario_name = ScenarioKindName(scenario_kind);
    const TrafficSeries traffic =
        BuildScenarioTraffic(harness.QuerySpec(scenario.days), scenario, config.seed + 71);
    for (PolicyKind policy_kind : AllPolicyKinds()) {
      ClosedLoopConfig cell = loop;
      cell.policy = policy_kind;
      const ClosedLoopResult r =
          RunClosedLoop(harness.app(), harness.simulator(), harness.learn_windows(),
                        traffic, &model, cell, scenario_name);
      rows.push_back({scenario_name, r.policy,
                      FormatDouble(100.0 * r.slo_violation_rate, 2),
                      FormatDouble(r.provisioned_core_hours, 1),
                      FormatDouble(r.demand_core_hours, 1),
                      FormatDouble(r.over_provision_ratio, 2),
                      std::to_string(r.actions)});
      results[scenario_name][r.policy] = r;
    }
  }
  std::printf("%s\n",
              RenderTable({"scenario", "policy", "SLO viol %", "prov core-h",
                           "demand core-h", "over-prov", "actions"},
                          rows)
                  .c_str());

  // Full-mode gate: predictive beats reactive on violations WITHOUT spending
  // more core-hours, on the two scenarios where forecastable structure
  // exists. (API-mix drift is reported but not gated: when the composition
  // rotates away from the training distribution, the forecast degrades by
  // design and the honest result is whatever it is.)
  bool predictive_wins = true;
  for (const std::string scenario_name : {"diurnal", "flash_crowd"}) {
    const ClosedLoopResult& reactive = results[scenario_name]["reactive"];
    const ClosedLoopResult& predictive = results[scenario_name]["predictive"];
    const bool wins =
        predictive.slo_violation_rate < reactive.slo_violation_rate &&
        predictive.provisioned_core_hours <= reactive.provisioned_core_hours + 1e-9;
    std::printf("%s: predictive %.3f%% viol @ %.1f core-h vs reactive %.3f%% @ %.1f -> %s\n",
                scenario_name.c_str(), 100.0 * predictive.slo_violation_rate,
                predictive.provisioned_core_hours, 100.0 * reactive.slo_violation_rate,
                reactive.provisioned_core_hours, wins ? "PASS" : "FAIL");
    predictive_wins = predictive_wins && wins;
  }
  std::printf("\n");

  // Structural gates (smoke and full): every cell ran the whole scenario,
  // accounted sane numbers, and the oracle never violates more than the
  // policies it upper-bounds.
  bool structure_ok = true;
  for (const auto& [scenario_name, cells] : results) {
    for (const auto& [policy_name, r] : cells) {
      structure_ok = structure_ok && r.windows > 0 && r.counters.ticks > 0 &&
                     r.provisioned_core_hours > 0.0 && r.demand_core_hours > 0.0 &&
                     r.slo_violation_rate >= 0.0 && r.slo_violation_rate <= 1.0;
    }
    // The oracle sizes true demand right at the knee (cost-optimal, not
    // violation-optimal), so it can carry trace violations — but it must
    // never do worse than the baseline that guesses.
    structure_ok = structure_ok && cells.at("oracle").slo_violation_rate <=
                                       cells.at("reactive").slo_violation_rate + 1e-9;
  }
  std::printf("structural check (all cells complete, oracle is the lower envelope): %s\n\n",
              structure_ok ? "PASS" : "FAIL");

  // Machine-readable summary for regression tracking (tools/bench_diff).
  {
    std::ofstream json(out_path);
    json << "{\n  \"smoke\": " << (smoke ? 1 : 0) << ",\n";
    json << "  \"scenarios\": {\n";
    size_t si = 0;
    for (const auto& [scenario_name, cells] : results) {
      json << "    \"" << scenario_name << "\": {\n";
      size_t pi = 0;
      for (const auto& [policy_name, r] : cells) {
        json << "      \"" << policy_name << "\": {"
             << "\"slo_violation_rate\": " << FormatDouble(r.slo_violation_rate, 4)
             << ", \"provisioned_core_hours\": " << FormatDouble(r.provisioned_core_hours, 2)
             << ", \"demand_core_hours\": " << FormatDouble(r.demand_core_hours, 2)
             << ", \"over_provisioned_core_hours\": "
             << FormatDouble(r.provisioned_core_hours - r.demand_core_hours, 2)
             << ", \"mean_utilization\": " << FormatDouble(r.mean_utilization, 3)
             << ", \"peak_replicas\": " << FormatDouble(r.peak_replicas, 0)
             << ", \"actions\": " << r.actions
             << ", \"blank_holds\": " << r.counters.blank_holds << "}"
             << (++pi < cells.size() ? "," : "") << "\n";
      }
      json << "    }" << (++si < results.size() ? "," : "") << "\n";
    }
    json << "  },\n";
    json << "  \"predictive_wins\": " << (predictive_wins ? 1 : 0) << "\n";
    json << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Smoke runs exercise the plumbing with a barely-trained model, so the
  // predictive-vs-reactive ordering is not meaningful there.
  if (smoke) {
    return structure_ok ? 0 : 1;
  }
  return structure_ok && predictive_wins ? 0 : 1;
}
