#include "exp/fleet_grid.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"
#include "exp/grid_engine.hpp"
#include "fleet/policy.hpp"
#include "workloads/groups.hpp"

namespace synpa::exp {

const FleetCellResult* FleetGridResult::find(const std::string& scenario,
                                             const std::string& fleet_policy) const {
    for (const auto& c : cells)
        if (c.scenario == scenario && c.fleet_policy == fleet_policy) return &c;
    return nullptr;
}

FleetGridRunner::FleetGridRunner() : FleetGridRunner(Options{}) {}

FleetGridRunner::FleetGridRunner(Options opts, ArtifactCache* cache)
    : opts_(opts),
      cache_(cache != nullptr ? cache : &ArtifactCache::global()),
      pool_(opts.threads) {}

FleetGridResult FleetGridRunner::run(const FleetCampaign& campaign,
                                     const std::vector<FleetAggregator*>& aggregators) {
    const auto start = std::chrono::steady_clock::now();
    if (campaign.node_configs.empty()) throw std::invalid_argument("fleet grid: no configs");
    if (campaign.scenarios.empty()) throw std::invalid_argument("fleet grid: no scenarios");
    if (campaign.fleet_policies.empty())
        throw std::invalid_argument("fleet grid: no fleet policies");
    for (const std::string& name : campaign.fleet_policies)
        if (fleet::find_fleet_policy(name) == nullptr)
            fleet::make_fleet_policy(name, {});  // throws with the inventory

    // ---- resolve shared artifacts per config ------------------------------
    std::vector<ArtifactSet> artifacts(campaign.node_configs.size());
    for (std::size_t ci = 0; ci < campaign.node_configs.size(); ++ci) {
        if (campaign.needs_training) {
            const std::vector<std::string> apps = campaign.training_apps.empty()
                                                      ? workloads::training_apps()
                                                      : campaign.training_apps;
            artifacts[ci].training =
                cache_->training(campaign.node_configs[ci], campaign.trainer, apps);
        }
    }

    // ---- every (config, scenario, fleet policy) cell in grid order --------
    const int reps = std::max(1, campaign.reps);
    std::vector<GridCell> cells;
    for (std::size_t ci = 0; ci < campaign.node_configs.size(); ++ci)
        for (std::size_t si = 0; si < campaign.scenarios.size(); ++si)
            for (std::size_t pi = 0; pi < campaign.fleet_policies.size(); ++pi)
                cells.push_back({ci, si, pi});
    std::vector<std::vector<fleet::FleetResult>> runs(
        cells.size(), std::vector<fleet::FleetResult>(static_cast<std::size_t>(reps)));

    const auto run_rep = [&](std::size_t index, int rep) {
        const GridCell& cell = cells[index];
        const uarch::SimConfig& cfg = campaign.node_configs[cell.config];
        // Repetitions re-sample the arrival process with a derived seed; rep
        // 0 keeps the spec verbatim so its memoized trace is shared with
        // direct scenario_trace callers.
        scenario::ScenarioSpec spec = campaign.scenarios[cell.item];
        if (rep > 0)
            spec.seed = common::derive_key(spec.seed, 0x9e9, static_cast<std::uint64_t>(rep));
        const auto trace = cache_->scenario_trace(spec, cfg);
        const std::uint64_t rep_seed =
            common::derive_key(spec.seed, 0x9001, static_cast<std::uint64_t>(rep));

        fleet::FleetOptions fo;
        fo.nodes = campaign.nodes;
        fo.node_config = cfg;
        fo.node_policy = campaign.node_policy;
        fo.fleet_policy = campaign.fleet_policies[cell.policy];
        fo.fleet_seed = common::derive_key(rep_seed, 0xf1ee);
        fo.preemption = campaign.preemption;
        // Nested parallelism composes by capping under the grid pool
        // (identical results at any thread count).
        fo.threads = static_cast<std::size_t>(uarch::nested_sim_threads(
            static_cast<int>(std::max<std::size_t>(campaign.fleet_threads, 1)), pool_.size()));
        fo.max_quanta = campaign.max_quanta;
        fo.record_timeline = campaign.record_timelines;
        const ArtifactSet& arts = artifacts[cell.config];
        if (arts.training)
            fo.policy_config.model = std::shared_ptr<const model::InterferenceModel>(
                arts.training, &arts.training->model);
        else if (campaign.model)
            fo.policy_config.model = campaign.model;
        fo.policy_config.seed = rep_seed;

        fleet::FleetRunner runner(*trace, std::move(fo));
        runs[index][static_cast<std::size_t>(rep)] = runner.run();
    };
    const auto finish = [&](std::size_t index) {
        const GridCell& cell = cells[index];
        const uarch::SimConfig& cfg = campaign.node_configs[cell.config];
        FleetCellResult done;
        done.config_index = cell.config;
        done.scenario_index = cell.item;
        done.policy_index = cell.policy;
        done.nodes = campaign.nodes;
        done.chips = cfg.num_chips;
        done.cores = cfg.cores;
        done.smt_ways = cfg.smt_ways;
        done.scenario = campaign.scenarios[cell.item].name;
        done.fleet_policy = campaign.fleet_policies[cell.policy];
        done.node_policy = campaign.node_policy;
        done.runs = std::move(runs[index]);
        done.summary = fleet::summarize(done.runs);
        return done;
    };
    const auto emit = [&](const FleetCellResult& cell, std::size_t index) {
        for (FleetAggregator* agg : aggregators) agg->on_cell(cell);
        if (opts_.log != nullptr)
            *opts_.log << "[" << (index + 1) << "/" << cells.size() << "] " << cell.scenario
                       << " / " << cell.fleet_policy
                       << " p99_slowdown=" << cell.summary.all.p99_slowdown
                       << " goodput=" << cell.summary.goodput << "\n";
    };
    std::vector<FleetCellResult> emitted =
        run_grid<FleetCellResult>(pool_, cells.size(), reps, run_rep, finish, emit);

    for (FleetAggregator* agg : aggregators) agg->finish();

    FleetGridResult result;
    result.cells = std::move(emitted);
    result.artifacts = std::move(artifacts);
    result.reps_executed = cells.size() * static_cast<std::size_t>(reps);
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

// ---------------------------------------------------------- aggregators --

FleetCsvAggregator::FleetCsvAggregator(std::ostream& os) : os_(os) {}

void FleetCsvAggregator::on_cell(const FleetCellResult& cell) {
    if (!header_written_) {
        os_ << "config,nodes,chips,cores,smt_ways,scenario_index,policy_index,scenario,"
               "fleet_policy,node_policy,planned,completed,"
               "p50_slowdown,p99_slowdown,p999_slowdown,mean_slowdown,"
               "p99_slowdown_lc,p999_slowdown_lc,violation_rate_lc,violation_rate_batch,"
               "goodput,throughput,preemptions_per_kquanta,mean_queue\n";
        header_written_ = true;
    }
    const fleet::FleetSummary& s = cell.summary;
    os_ << cell.config_index << ',' << cell.nodes << ',' << cell.chips << ','
        << cell.cores << ',' << cell.smt_ways << ',' << cell.scenario_index << ','
        << cell.policy_index << ',' << cell.scenario << ',' << cell.fleet_policy << ','
        << cell.node_policy << ',' << s.all.planned << ',' << s.all.completed << ','
        << s.all.p50_slowdown << ',' << s.all.p99_slowdown << ',' << s.all.p999_slowdown
        << ',' << s.all.mean_slowdown << ',' << s.latency_critical.p99_slowdown << ','
        << s.latency_critical.p999_slowdown << ',' << s.latency_critical.violation_rate
        << ',' << s.batch.violation_rate << ',' << s.goodput << ',' << s.throughput
        << ',' << s.preemptions_per_kquanta << ',' << s.all.mean_queue_quanta << '\n';
}

void FleetCsvAggregator::finish() { os_.flush(); }

}  // namespace synpa::exp
