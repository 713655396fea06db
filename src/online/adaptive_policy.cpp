#include "online/adaptive_policy.hpp"

#include <algorithm>
#include <utility>

#include "common/config.hpp"
#include "obs/trace.hpp"

namespace synpa::online {

OnlineOptions OnlineOptions::from_env() {
    OnlineOptions o;
    o.detector = PhaseDetector::Options::from_env();
    o.prior_strength = common::env_double("SYNPA_ONLINE_PRIOR", o.prior_strength);
    o.refit_period = static_cast<std::uint64_t>(std::max<std::int64_t>(
        common::env_int("SYNPA_ONLINE_REFIT_QUANTA", static_cast<std::int64_t>(o.refit_period)),
        1));
    o.min_samples = static_cast<std::size_t>(std::max<std::int64_t>(
        common::env_int("SYNPA_ONLINE_MIN_SAMPLES", static_cast<std::int64_t>(o.min_samples)),
        1));
    o.reference_max_age = static_cast<std::uint64_t>(std::max<std::int64_t>(
        common::env_int("SYNPA_ONLINE_REF_MAX_AGE",
                        static_cast<std::int64_t>(o.reference_max_age)),
        1));
    o.forgetting = common::env_double("SYNPA_ONLINE_FORGETTING", o.forgetting);
    return o;
}

AdaptiveSynpaPolicy::AdaptiveSynpaPolicy(model::InterferenceModel model,
                                         core::SynpaPolicy::Options base,
                                         OnlineOptions online)
    : inner_(model, base),
      opts_(online),
      detector_(online.detector),
      trainer_(std::move(model), {.prior_strength = online.prior_strength}) {}

void AdaptiveSynpaPolicy::set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer != nullptr && tracer->enabled() ? tracer : nullptr;
    inner_.set_tracer(tracer);  // allocation events come from the inner policy
}

std::string AdaptiveSynpaPolicy::name() const {
    // "synpa-adaptive", with the inner selector/objective suffixes kept
    // ("synpa-fair" -> "synpa-adaptive-fair").
    const std::string base = inner_.name();
    return "synpa-adaptive" + base.substr(std::string("synpa").size());
}

sched::CoreAllocation AdaptiveSynpaPolicy::reallocate(
    std::span<const sched::TaskObservation> observations) {
    ++quantum_;

    // Placement-stability gate: a task whose core or co-runner set changed
    // since the previous quantum shows counter shifts that are explained by
    // the *scheduler* (regrouping contention change, migration warmup), not
    // by the application.  Feeding those quanta to the CUSUM would raise
    // false alarms on every regroup, and harvesting them would produce
    // misaligned samples — so both only see stable quanta, and a placement
    // change restarts the task's detector baseline.
    std::vector<bool> stable(observations.size(), false);
    for (std::size_t i = 0; i < observations.size(); ++i) {
        const sched::TaskObservation& o = observations[i];
        Placement now{.core = o.core, .corunners = o.corunner_task_ids};
        const Placement* it = last_placement_.find(o.task_id);
        stable[i] = it != nullptr && *it == now;
        last_placement_[o.task_id] = std::move(now);
    }

    // Phase detection: an alarm invalidates both the estimator's smoothed
    // estimate and the task's solo reference before either is used for
    // this quantum's harvest or grouping.
    for (std::size_t i = 0; i < observations.size(); ++i) {
        const sched::TaskObservation& o = observations[i];
        if (!stable[i]) {
            detector_.reset(o.task_id);
            continue;
        }
        if (detector_.observe(o.task_id, o.breakdown.ipc(), o.breakdown.fractions())) {
            ++phase_changes_;
            if (tracer_ != nullptr && tracer_->wants(obs::EventKind::kPhaseAlarm)) {
                obs::TraceEvent e;
                e.kind = obs::EventKind::kPhaseAlarm;
                e.quantum = tracer_->quantum();
                e.task = o.task_id;
                e.core = o.core;
                tracer_->emit(std::move(e));
            }
            // The solo reference describes the *previous* phase: harvesting
            // against it would misalign every sample until it is renewed.
            // The estimator's own estimate is left alone — its EMA halves
            // the stale phase's influence every quantum anyway, while a
            // hard reset to the uniform prior destabilizes the matching
            // for longer than the EMA takes to converge.
            references_.erase(o.task_id);
        }
    }

    harvest_samples(observations, stable);
    maybe_refit();
    return inner_.reallocate(observations);
}

void AdaptiveSynpaPolicy::harvest_samples(
    std::span<const sched::TaskObservation> observations,
    const std::vector<bool>& stable) {
    // Co-run quanta first, against references measured in *earlier* quanta,
    // then refresh references from this quantum's solo runs.
    for (std::size_t i = 0; i < observations.size(); ++i) {
        const sched::TaskObservation& o = observations[i];
        if (!stable[i] || o.corunner_task_ids.empty()) continue;
        const SoloReference* self = references_.find(o.task_id);
        if (self == nullptr || quantum_ - self->quantum > opts_.reference_max_age) continue;
        if (self->ipc <= 0.0 || o.breakdown.instructions == 0) continue;

        model::CategoryVector corunner{};
        bool ok = true;
        for (const int partner : o.corunner_task_ids) {
            const SoloReference* it = references_.find(partner);
            if (it == nullptr || quantum_ - it->quantum > opts_.reference_max_age) {
                ok = false;
                break;
            }
            for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                corunner[c] += it->fractions[c];
        }
        if (!ok) continue;

        // Isolated cycles this quantum's work would have taken, from the
        // task's own recent solo IPC — the paper's instruction-count
        // alignment, with a per-phase rolling profile instead of an
        // offline one.
        const double isolated_cycles =
            static_cast<double>(o.breakdown.instructions) / self->ipc;
        if (isolated_cycles <= 0.0) continue;
        model::TrainingSample sample;
        sample.st_self = self->fractions;
        sample.st_corunner = corunner;
        double slowdown = 0.0;
        for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
            sample.smt_per_st[c] = o.breakdown.categories[c] / isolated_cycles;
            slowdown += sample.smt_per_st[c];
        }
        if (slowdown < 0.5 || slowdown > opts_.max_sample_slowdown) continue;
        // Split harvested samples 2:1 training/held-out so the refit gate
        // judges candidate models on samples they never saw.
        if (samples_ % 3 != 2) {
            trainer_.add_sample(sample);
            ++pending_samples_;
        } else {
            validation_.push_back(sample);
            if (validation_.size() > opts_.validation_window) validation_.pop_front();
        }
        ++samples_;
    }

    for (std::size_t i = 0; i < observations.size(); ++i) {
        const sched::TaskObservation& o = observations[i];
        if (!stable[i] || !o.corunner_task_ids.empty()) continue;
        if (o.breakdown.cycles == 0 || o.breakdown.instructions == 0) continue;
        references_[o.task_id] = {.fractions = o.breakdown.fractions(),
                                  .ipc = o.breakdown.ipc(),
                                  .quantum = quantum_};
    }
}

namespace {

/// Mean squared prediction error of `m` over held-out samples (summed
/// across the three categories per sample).
double holdout_error(const model::InterferenceModel& m,
                     const std::deque<model::TrainingSample>& samples) {
    double err = 0.0;
    for (const model::TrainingSample& s : samples) {
        const model::CategoryVector pred = m.predict(s.st_self, s.st_corunner);
        for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
            const double d = pred[c] - s.smt_per_st[c];
            err += d * d;
        }
    }
    return samples.empty() ? 0.0 : err / static_cast<double>(samples.size());
}

}  // namespace

void AdaptiveSynpaPolicy::maybe_refit() {
    if (quantum_ - last_refit_ < opts_.refit_period) return;
    if (pending_samples_ < opts_.min_samples) return;
    if (validation_.size() < opts_.min_validation) return;
    last_refit_ = quantum_;
    pending_samples_ = 0;
    try {
        const model::InterferenceModel candidate = trainer_.fit();
        // Do-no-harm gate: adopt only when the candidate predicts the
        // held-out samples substantially better than the running model.
        const double cand_err = holdout_error(candidate, validation_);
        const double incumbent_err = holdout_error(inner_.estimator().model(), validation_);
        const bool adopt = cand_err <= opts_.adopt_factor * incumbent_err;
        if (adopt) {
            inner_.set_model(candidate);
            ++refits_;
        }
        if (tracer_ != nullptr && tracer_->wants(obs::EventKind::kModelRefit)) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::kModelRefit;
            e.quantum = tracer_->quantum();
            e.a = adopt ? 1 : 0;
            e.value = cand_err;
            tracer_->emit(std::move(e));
        }
    } catch (const std::runtime_error&) {
        // Not enough independent evidence yet (singular normal equations
        // with prior_strength 0); keep the current model and retry later.
    }
    if (opts_.forgetting < 1.0) trainer_.decay(opts_.forgetting);
}

void AdaptiveSynpaPolicy::on_task_replaced(int old_task_id, int new_task_id) {
    // A relaunch restarts the application from its first phase: the
    // estimator's behaviour estimate transfers (same app), but the phase
    // baseline and solo reference describe the predecessor's final phase.
    detector_.forget(old_task_id);
    references_.erase(old_task_id);
    last_placement_.erase(old_task_id);
    inner_.on_task_replaced(old_task_id, new_task_id);
}

void AdaptiveSynpaPolicy::on_task_finished(int task_id) {
    detector_.forget(task_id);
    references_.erase(task_id);
    last_placement_.erase(task_id);
    inner_.on_task_finished(task_id);
}

}  // namespace synpa::online
