#include "exp/scenario_grid.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"
#include "exp/grid_engine.hpp"
#include "obs/trace.hpp"
#include "workloads/groups.hpp"

namespace synpa::exp {

ScenarioSummary summarize_runs(std::span<const scenario::ScenarioResult> runs) {
    ScenarioSummary s;
    std::vector<double> turnarounds;
    double queue_sum = 0.0, slowdown_sum = 0.0, util_sum = 0.0;
    double quanta_total = 0.0, migrations_total = 0.0, cross_chip_total = 0.0;
    std::size_t util_runs = 0;
    for (const scenario::ScenarioResult& run : runs) {
        s.planned_tasks += run.tasks.size();
        s.completed_tasks += run.completed_tasks;
        s.all_completed = s.all_completed && run.completed;
        for (const scenario::TaskRecord& rec : run.tasks) {
            if (!rec.completed) continue;
            turnarounds.push_back(rec.turnaround_quanta);
            queue_sum += rec.queue_quanta;
            slowdown_sum += rec.slowdown;
        }
        if (!run.timeline.empty()) {
            util_sum += run.mean_utilization();
            ++util_runs;
        }
        quanta_total += static_cast<double>(run.quanta_executed);
        migrations_total += static_cast<double>(run.migrations);
        cross_chip_total += static_cast<double>(run.cross_chip_migrations);
        s.adaptive = s.adaptive || run.adaptive;
        s.phase_changes_per_run += static_cast<double>(run.phase_changes);
        s.model_refits_per_run += static_cast<double>(run.model_refits);
    }
    if (!runs.empty()) {
        s.phase_changes_per_run /= static_cast<double>(runs.size());
        s.model_refits_per_run /= static_cast<double>(runs.size());
    }
    if (!turnarounds.empty()) {
        double sum = 0.0;
        for (double t : turnarounds) sum += t;
        const auto n = static_cast<double>(turnarounds.size());
        s.mean_turnaround = sum / n;
        std::sort(turnarounds.begin(), turnarounds.end());
        s.p50_turnaround = common::percentile_sorted(turnarounds, 0.50);
        s.p95_turnaround = common::percentile_sorted(turnarounds, 0.95);
        s.p99_turnaround = common::percentile_sorted(turnarounds, 0.99);
        s.mean_queue = queue_sum / n;
        s.mean_slowdown = slowdown_sum / n;
    }
    if (util_runs > 0) s.mean_utilization = util_sum / static_cast<double>(util_runs);
    if (quanta_total > 0.0) {
        s.throughput = static_cast<double>(s.completed_tasks) / quanta_total;
        s.migrations_per_quantum = migrations_total / quanta_total;
        s.cross_chip_per_quantum = cross_chip_total / quanta_total;
    }
    return s;
}

const ScenarioCellResult* ScenarioGridResult::find(const std::string& scenario,
                                                   const std::string& policy) const {
    for (const auto& c : cells)
        if (c.scenario == scenario && c.policy == policy) return &c;
    return nullptr;
}

ScenarioGridRunner::ScenarioGridRunner() : ScenarioGridRunner(Options{}) {}

ScenarioGridRunner::ScenarioGridRunner(Options opts, ArtifactCache* cache)
    : opts_(opts),
      cache_(cache != nullptr ? cache : &ArtifactCache::global()),
      pool_(opts.threads) {}

ScenarioGridResult ScenarioGridRunner::run(
    const ScenarioCampaign& campaign, const std::vector<ScenarioAggregator*>& aggregators) {
    const auto start = std::chrono::steady_clock::now();
    if (campaign.configs.empty()) throw std::invalid_argument("scenario grid: no configs");
    if (campaign.scenarios.empty())
        throw std::invalid_argument("scenario grid: no scenarios");
    // The policy axis: explicit columns first, then registered names.
    std::vector<PolicySpec> policies = campaign.policies;
    for (const std::string& name : campaign.policy_names)
        policies.push_back(registry_policy(name));
    if (policies.empty()) throw std::invalid_argument("scenario grid: no policies");

    // ---- resolve shared artifacts per config ------------------------------
    std::vector<ArtifactSet> artifacts(campaign.configs.size());
    for (std::size_t ci = 0; ci < campaign.configs.size(); ++ci) {
        if (campaign.needs_training) {
            const std::vector<std::string> apps = campaign.training_apps.empty()
                                                      ? workloads::training_apps()
                                                      : campaign.training_apps;
            artifacts[ci].training =
                cache_->training(campaign.configs[ci], campaign.trainer, apps);
        }
    }

    // ---- every (config, scenario, policy) cell in grid order --------------
    const int reps = std::max(1, campaign.reps);
    std::vector<GridCell> cells;
    for (std::size_t ci = 0; ci < campaign.configs.size(); ++ci)
        for (std::size_t si = 0; si < campaign.scenarios.size(); ++si)
            for (std::size_t pi = 0; pi < policies.size(); ++pi) cells.push_back({ci, si, pi});
    std::vector<std::vector<scenario::ScenarioResult>> runs(
        cells.size(), std::vector<scenario::ScenarioResult>(static_cast<std::size_t>(reps)));

    // Per-cell flight recording: with SYNPA_TRACE and a SYNPA_TRACE_FILE
    // set, every repetition gets its own tracer and trace file (tagged
    // c<config>s<scenario>p<policy>r<rep>), so parallel cells never share a
    // recorder and memoized traces stay byte-identical.
    const obs::TraceConfig trace_cfg = obs::TraceConfig::from_env();

    const auto run_rep = [&](std::size_t index, int rep) {
        const GridCell& cell = cells[index];
        const uarch::SimConfig& cfg = campaign.configs[cell.config];
        // Repetitions re-sample the arrival process with a derived seed; rep
        // 0 keeps the spec verbatim so its memoized trace is shared with
        // direct scenario_trace callers.
        scenario::ScenarioSpec spec = campaign.scenarios[cell.item];
        if (rep > 0)
            spec.seed = common::derive_key(spec.seed, 0x9e9, static_cast<std::uint64_t>(rep));
        const auto trace = cache_->scenario_trace(spec, cfg);
        const std::uint64_t rep_seed =
            common::derive_key(spec.seed, 0x9001, static_cast<std::uint64_t>(rep));
        const auto policy = policies[cell.policy].make(artifacts[cell.config], rep_seed);
        // Nested parallelism composes by capping: the grid already fans out
        // across cells, so the cell's platform only keeps sim_threads the
        // host has spare (results are identical at any thread count).
        uarch::SimConfig cell_cfg = cfg;
        cell_cfg.sim_threads = uarch::nested_sim_threads(cfg.sim_threads, pool_.size());
        uarch::Platform platform(cell_cfg);
        std::unique_ptr<obs::Tracer> tracer;
        if (trace_cfg.enabled && !trace_cfg.file.empty()) {
            char tag[64];
            std::snprintf(tag, sizeof(tag), "c%zus%zup%zur%d", cell.config, cell.item,
                          cell.policy, rep);
            obs::TraceConfig cell_trace = trace_cfg;
            cell_trace.file = obs::derive_trace_path(trace_cfg.file, tag);
            tracer = std::make_unique<obs::Tracer>(std::move(cell_trace));
        }
        scenario::ScenarioRunner runner(platform, *policy, *trace,
                                        {.max_quanta = campaign.max_quanta,
                                         .record_timeline = campaign.record_timelines,
                                         .tracer = tracer.get()});
        runs[index][static_cast<std::size_t>(rep)] = runner.run();
        if (tracer) tracer->finish();
    };
    const auto finish = [&](std::size_t index) {
        const GridCell& cell = cells[index];
        const uarch::SimConfig& cfg = campaign.configs[cell.config];
        ScenarioCellResult done;
        done.config_index = cell.config;
        done.scenario_index = cell.item;
        done.policy_index = cell.policy;
        done.chips = cfg.num_chips;
        done.cores = cfg.cores;
        done.smt_ways = cfg.smt_ways;
        done.scenario = campaign.scenarios[cell.item].name;
        done.policy = policies[cell.policy].label;
        done.adaptive = policies[cell.policy].adaptive;
        done.runs = std::move(runs[index]);
        done.summary = summarize_runs(done.runs);
        return done;
    };
    const auto emit = [&](const ScenarioCellResult& cell, std::size_t index) {
        for (ScenarioAggregator* agg : aggregators) agg->on_cell(cell);
        if (opts_.log != nullptr)
            *opts_.log << "[" << (index + 1) << "/" << cells.size() << "] " << cell.scenario
                       << " / " << cell.policy << " TTmean=" << cell.summary.mean_turnaround
                       << " util=" << cell.summary.mean_utilization << "\n";
    };
    std::vector<ScenarioCellResult> emitted =
        run_grid<ScenarioCellResult>(pool_, cells.size(), reps, run_rep, finish, emit);

    for (ScenarioAggregator* agg : aggregators) agg->finish();

    ScenarioGridResult result;
    result.cells = std::move(emitted);
    result.artifacts = std::move(artifacts);
    result.reps_executed = cells.size() * static_cast<std::size_t>(reps);
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

// ---------------------------------------------------------- aggregators --

ScenarioCsvAggregator::ScenarioCsvAggregator(std::ostream& os) : os_(os) {}

void ScenarioCsvAggregator::on_cell(const ScenarioCellResult& cell) {
    if (!header_written_) {
        // `adaptive` stays the trailing column: the CI smoke checks address
        // the leading columns positionally.
        os_ << "config,chips,cores,smt_ways,scenario_index,policy_index,scenario,policy,"
               "planned,completed,all_completed,mean_tt,p50_tt,p95_tt,p99_tt,mean_queue,"
               "mean_slowdown,mean_utilization,throughput,migrations_per_quantum,"
               "cross_chip_per_quantum,adaptive\n";
        header_written_ = true;
    }
    const ScenarioSummary& s = cell.summary;
    os_ << cell.config_index << ',' << cell.chips << ',' << cell.cores << ','
        << cell.smt_ways << ',' << cell.scenario_index << ',' << cell.policy_index
        << ',' << cell.scenario << ',' << cell.policy << ',' << s.planned_tasks << ','
        << s.completed_tasks << ',' << (s.all_completed ? 1 : 0) << ',' << s.mean_turnaround
        << ',' << s.p50_turnaround << ',' << s.p95_turnaround << ',' << s.p99_turnaround
        << ',' << s.mean_queue << ',' << s.mean_slowdown << ',' << s.mean_utilization << ','
        << s.throughput << ',' << s.migrations_per_quantum << ','
        // Measured, not declared: true when the runs' policy actually
        // implemented sched::OnlinePolicy, whatever the PolicySpec said.
        << s.cross_chip_per_quantum << ',' << (s.adaptive ? 1 : 0) << '\n';
}

void ScenarioCsvAggregator::finish() { os_.flush(); }

UtilizationSeriesAggregator::UtilizationSeriesAggregator(std::size_t buckets)
    : buckets_(std::max<std::size_t>(buckets, 1)) {}

void UtilizationSeriesAggregator::on_cell(const ScenarioCellResult& cell) {
    Series series;
    series.scenario = cell.scenario;
    series.policy = cell.policy;
    series.mean_utilization.assign(buckets_, 0.0);
    std::vector<std::size_t> counts(buckets_, 0);
    for (const scenario::ScenarioResult& run : cell.runs) {
        if (run.timeline.empty()) continue;
        const auto span = static_cast<double>(run.timeline.size());
        for (const scenario::QuantumSample& sample : run.timeline) {
            const auto bucket = std::min(
                buckets_ - 1, static_cast<std::size_t>(
                                  static_cast<double>(sample.quantum) / span *
                                  static_cast<double>(buckets_)));
            series.mean_utilization[bucket] += sample.utilization;
            ++counts[bucket];
        }
    }
    for (std::size_t b = 0; b < buckets_; ++b)
        if (counts[b] > 0)
            series.mean_utilization[b] /= static_cast<double>(counts[b]);
    series_.push_back(std::move(series));
}

void SlowdownAggregator::on_cell(const ScenarioCellResult& cell) {
    common::RunningStats& stats = stats_[{cell.scenario, cell.policy}];
    for (const scenario::ScenarioResult& run : cell.runs)
        for (const scenario::TaskRecord& rec : run.tasks)
            if (rec.completed) stats.add(rec.slowdown);
}

void TurnaroundTailAggregator::on_cell(const ScenarioCellResult& cell) {
    std::vector<double> turnarounds;
    for (const scenario::ScenarioResult& run : cell.runs)
        for (const scenario::TaskRecord& rec : run.tasks)
            if (rec.completed) turnarounds.push_back(rec.turnaround_quanta);
    Row row;
    row.scenario = cell.scenario;
    row.policy = cell.policy;
    row.samples = turnarounds.size();
    if (!turnarounds.empty()) {
        std::sort(turnarounds.begin(), turnarounds.end());
        row.p50 = common::percentile_sorted(turnarounds, 0.50);
        row.p95 = common::percentile_sorted(turnarounds, 0.95);
        row.p99 = common::percentile_sorted(turnarounds, 0.99);
        row.max = turnarounds.back();
    }
    rows_.push_back(std::move(row));
}

}  // namespace synpa::exp
