#include "exp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/grid_engine.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "workloads/groups.hpp"

namespace synpa::exp {
namespace {

/// The paper's repetition aggregation (§V-B): CV-based outlier discard on
/// the turnaround samples, then averaging of the retained metrics.  This is
/// the single implementation — workloads::run_workload goes through here.
workloads::RepeatedResult aggregate_repetitions(
    const workloads::WorkloadSpec& spec, std::vector<sched::RunResult> runs,
    const std::vector<metrics::WorkloadMetrics>& run_metrics, double cv_limit) {
    std::vector<double> tts;
    tts.reserve(run_metrics.size());
    for (const auto& m : run_metrics) tts.push_back(m.turnaround_quanta);
    const std::vector<double> kept = common::discard_outliers_until_cv(tts, cv_limit);

    workloads::RepeatedResult result;
    result.workload = spec.name;
    result.policy = runs.front().policy_name;
    result.turnaround_samples = kept;

    metrics::WorkloadMetrics mean{};
    int used = 0;
    for (std::size_t rep = 0; rep < run_metrics.size(); ++rep) {
        const double tt = run_metrics[rep].turnaround_quanta;
        if (std::find(kept.begin(), kept.end(), tt) == kept.end()) continue;
        mean.turnaround_quanta += run_metrics[rep].turnaround_quanta;
        mean.fairness += run_metrics[rep].fairness;
        mean.ipc_geomean += run_metrics[rep].ipc_geomean;
        mean.antt += run_metrics[rep].antt;
        ++used;
    }
    if (used > 0) {
        mean.turnaround_quanta /= used;
        mean.fairness /= used;
        mean.ipc_geomean /= used;
        mean.antt /= used;
    }
    mean.individual_speedups = run_metrics.front().individual_speedups;
    result.mean_metrics = mean;
    result.exemplar = std::move(runs.front());
    return result;
}

}  // namespace

PolicySpec policy(std::string label, workloads::PolicyFactory factory) {
    return {std::move(label),
            [factory = std::move(factory)](const ArtifactSet&, std::uint64_t rep_seed) {
                return factory(rep_seed);
            },
            /*adaptive=*/false};
}

PolicySpec registry_policy(std::string name) {
    const sched::PolicyInfo* info = sched::find_policy(name);
    if (info == nullptr)
        throw std::invalid_argument("registry_policy: unknown policy '" + name +
                                    "' (see sched::registered_policies())");
    PolicySpec spec;
    spec.label = name;
    spec.adaptive = info->adaptive;
    spec.make = [name = std::move(name)](const ArtifactSet& artifacts,
                                         std::uint64_t rep_seed) {
        sched::PolicyConfig config;
        if (artifacts.training)
            // Aliasing pointer: the model lives inside the shared training
            // artifact, which stays alive as long as any cell holds it.
            config.model = std::shared_ptr<const model::InterferenceModel>(
                artifacts.training, &artifacts.training->model);
        config.seed = rep_seed;
        return sched::make_policy(name, config);
    };
    return spec;
}

std::vector<PolicySpec> registry_policies(std::span<const std::string> names) {
    std::vector<PolicySpec> specs;
    specs.reserve(names.size());
    for (const std::string& name : names) specs.push_back(registry_policy(name));
    return specs;
}

const CellResult* CampaignResult::find(const std::string& workload,
                                       const std::string& policy) const {
    for (const auto& c : cells)
        if (c.workload == workload && c.policy == policy) return &c;
    return nullptr;
}

CampaignRunner::CampaignRunner() : CampaignRunner(Options{}) {}

CampaignRunner::CampaignRunner(Options opts, ArtifactCache* cache)
    : opts_(opts),
      cache_(cache != nullptr ? cache : &ArtifactCache::global()),
      pool_(opts.threads) {}

CampaignResult CampaignRunner::run(const Campaign& campaign,
                                   const std::vector<Aggregator*>& aggregators) {
    const auto start = std::chrono::steady_clock::now();
    if (campaign.configs.empty()) throw std::invalid_argument("campaign: no configs");
    // The policy axis: explicit columns first, then registered names.
    std::vector<PolicySpec> policies = campaign.policies;
    for (const std::string& name : campaign.policy_names)
        policies.push_back(registry_policy(name));
    if (policies.empty()) throw std::invalid_argument("campaign: no policies");

    // ---- resolve shared artifacts and the workload axis per config -------
    struct ConfigPlan {
        uarch::SimConfig cfg;
        ArtifactSet artifacts;
        std::vector<workloads::WorkloadSpec> workloads;
    };
    std::vector<ConfigPlan> plans;
    plans.reserve(campaign.configs.size());
    for (const auto& cfg : campaign.configs) {
        ConfigPlan plan;
        plan.cfg = cfg;
        if (campaign.needs_training) {
            const std::vector<std::string> apps = campaign.training_apps.empty()
                                                      ? workloads::training_apps()
                                                      : campaign.training_apps;
            plan.artifacts.training = cache_->training(cfg, campaign.trainer, apps);
        }
        if (campaign.needs_characterizations || campaign.use_paper_workloads)
            plan.artifacts.characterizations = cache_->characterizations(
                cfg, campaign.characterization_quanta, campaign.methodology.seed);
        if (campaign.needs_calibration)
            workloads::calibrate_suite(cfg, campaign.calibration_quanta,
                                       campaign.methodology.seed);
        plan.workloads = campaign.use_paper_workloads
                             ? workloads::paper_workloads(*plan.artifacts.characterizations,
                                                          campaign.methodology.seed)
                             : campaign.workloads;
        if (plan.workloads.empty()) throw std::invalid_argument("campaign: no workloads");
        plans.push_back(std::move(plan));
    }

    // ---- every (config, workload, policy) cell in grid order --------------
    const int reps = std::max(1, campaign.methodology.reps);
    std::vector<GridCell> cells;
    for (std::size_t ci = 0; ci < plans.size(); ++ci)
        for (std::size_t wi = 0; wi < plans[ci].workloads.size(); ++wi)
            for (std::size_t pi = 0; pi < policies.size(); ++pi) cells.push_back({ci, wi, pi});
    const auto nreps = static_cast<std::size_t>(reps);
    std::vector<std::vector<sched::RunResult>> runs(cells.size(),
                                                    std::vector<sched::RunResult>(nreps));
    std::vector<std::vector<metrics::WorkloadMetrics>> run_metrics(
        cells.size(), std::vector<metrics::WorkloadMetrics>(nreps));

    // Per-cell flight recording: with SYNPA_TRACE and a SYNPA_TRACE_FILE
    // set, every repetition gets its own tracer and trace file (tagged
    // c<config>w<workload>p<policy>r<rep>), so parallel cells never share a
    // recorder and memoized artifacts stay byte-identical.
    const obs::TraceConfig trace_cfg = obs::TraceConfig::from_env();

    const workloads::MethodologyOptions& opts = campaign.methodology;
    const auto run_rep = [&](std::size_t index, int rep) {
        const GridCell& cell = cells[index];
        const ConfigPlan& plan = plans[cell.config];
        const workloads::WorkloadSpec& spec = plan.workloads[cell.item];
        workloads::MethodologyOptions rep_opts = opts;
        rep_opts.record_traces = opts.record_traces && rep == 0;
        rep_opts.threads = 1;  // parallelism lives at the rep grain
        std::unique_ptr<obs::Tracer> tracer;
        if (trace_cfg.enabled && !trace_cfg.file.empty()) {
            char tag[64];
            std::snprintf(tag, sizeof(tag), "c%zuw%zup%zur%d", cell.config, cell.item,
                          cell.policy, rep);
            obs::TraceConfig cell_trace = trace_cfg;
            cell_trace.file = obs::derive_trace_path(trace_cfg.file, tag);
            tracer = std::make_unique<obs::Tracer>(std::move(cell_trace));
            rep_opts.tracer = tracer.get();
        }
        const auto prepared = cache_->prepared(spec, plan.cfg, opts, rep);
        const std::uint64_t rep_seed = common::derive_key(
            opts.seed, common::hash_string(spec.name), 0x9001, static_cast<std::uint64_t>(rep));
        const auto pol = policies[cell.policy].make(plan.artifacts, rep_seed);
        // Nested parallelism composes by capping: repetitions already fan
        // out over this pool, so the cell's platform only keeps sim_threads
        // the host has spare (results are identical at any thread count).
        uarch::SimConfig cell_cfg = plan.cfg;
        cell_cfg.sim_threads = uarch::nested_sim_threads(cell_cfg.sim_threads, pool_.size());
        const auto r = static_cast<std::size_t>(rep);
        runs[index][r] = workloads::run_workload_once(*prepared, cell_cfg, *pol, rep_opts);
        if (tracer) tracer->finish();
        run_metrics[index][r] = metrics::compute_metrics(runs[index][r]);
    };
    const auto finish = [&](std::size_t index) {
        const GridCell& cell = cells[index];
        const uarch::SimConfig& cfg = campaign.configs[cell.config];
        const workloads::WorkloadSpec& spec = plans[cell.config].workloads[cell.item];
        CellResult done;
        done.config_index = cell.config;
        done.workload_index = cell.item;
        done.policy_index = cell.policy;
        done.chips = cfg.num_chips;
        done.cores = cfg.cores;
        done.smt_ways = cfg.smt_ways;
        done.workload = spec.name;
        done.policy = policies[cell.policy].label;
        done.adaptive = policies[cell.policy].adaptive;
        done.result = aggregate_repetitions(spec, std::move(runs[index]), run_metrics[index],
                                            opts.cv_limit);
        return done;
    };
    const auto emit = [&](const CellResult& cell, std::size_t index) {
        for (Aggregator* agg : aggregators) agg->on_cell(cell);
        if (opts_.log != nullptr)
            *opts_.log << "[" << (index + 1) << "/" << cells.size() << "] " << cell.workload
                       << " / " << cell.policy
                       << " TT=" << cell.result.mean_metrics.turnaround_quanta << "\n";
    };
    std::vector<CellResult> emitted =
        run_grid<CellResult>(pool_, cells.size(), reps, run_rep, finish, emit);

    for (Aggregator* agg : aggregators) agg->finish();

    CampaignResult result;
    result.cells = std::move(emitted);
    for (const auto& plan : plans) result.artifacts.push_back(plan.artifacts);
    result.reps_executed = cells.size() * static_cast<std::size_t>(reps);
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

workloads::PolicyComparison paired_comparison(const std::string& workload,
                                              const metrics::WorkloadMetrics& baseline,
                                              const metrics::WorkloadMetrics& treatment) {
    workloads::PolicyComparison c;
    c.workload = workload;
    c.baseline = baseline;
    c.treatment = treatment;
    c.tt_speedup = metrics::turnaround_speedup(baseline, treatment);
    c.ipc_speedup = metrics::ipc_speedup(baseline, treatment);
    c.fairness_delta = treatment.fairness - baseline.fairness;
    return c;
}

std::vector<workloads::PolicyComparison> compare_to_baseline(const CampaignResult& result,
                                                             std::size_t baseline_policy,
                                                             std::size_t treatment_policy) {
    std::map<std::size_t, const CellResult*> base, treat;
    for (const auto& c : result.cells) {
        if (c.policy_index == baseline_policy) base[c.workload_index] = &c;
        if (c.policy_index == treatment_policy) treat[c.workload_index] = &c;
    }
    std::vector<workloads::PolicyComparison> out;
    out.reserve(base.size());
    for (const auto& [wi, b] : base) {
        const auto it = treat.find(wi);
        if (it == treat.end()) continue;
        out.push_back(paired_comparison(b->workload, b->result.mean_metrics,
                                        it->second->result.mean_metrics));
    }
    return out;
}

}  // namespace synpa::exp
