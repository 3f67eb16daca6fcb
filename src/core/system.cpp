#include "core/system.h"

#include <stdexcept>

namespace linbound {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kComplete:
      return "complete";
    case RunStatus::kStalled:
      return "stalled";
    case RunStatus::kEventCapExceeded:
      return "event-cap-exceeded";
    case RunStatus::kAborted:
      return "aborted";
  }
  return "?";
}

ObjectSystem::ObjectSystem(std::shared_ptr<const ObjectModel> model,
                           const SystemOptions& options)
    : model_(std::move(model)) {
  SimConfig config;
  config.timing = options.timing;
  config.clock_offsets = options.clock_offsets;
  config.delays = options.delays;
  config.faults = options.faults;
  config.max_events = options.max_events;
  sim_ = std::make_unique<Simulator>(std::move(config));
}

History ObjectSystem::run_to_completion() {
  sim_->start();
  if (!sim_->run()) {
    throw std::runtime_error("simulation exceeded the event cap");
  }
  return History::from_trace(sim_->trace());
}

RunOutcome ObjectSystem::run_with_outcome() {
  sim_->start();
  const bool quiesced = sim_->run();
  RunOutcome out;
  auto [history, pending] = history_with_pending(sim_->trace());
  out.history = std::move(history);
  out.pending = std::move(pending);
  out.status = !quiesced ? RunStatus::kEventCapExceeded
               : out.pending.empty() ? RunStatus::kComplete
                                     : RunStatus::kStalled;
  return out;
}

CheckResult ObjectSystem::run_and_check() {
  return check_linearizable(*model_, run_to_completion());
}

ReplicaSystem::ReplicaSystem(std::shared_ptr<const ObjectModel> model,
                             const SystemOptions& options)
    : ObjectSystem(std::move(model), options),
      delays_(options.algorithm_delays
                  ? *options.algorithm_delays
                  : AlgorithmDelays::standard(
                        options.recoverable
                            ? options.recoverable->link.effective_timing(
                                  options.timing)
                        : options.hardened
                            ? options.hardened->effective_timing(options.timing)
                            : options.timing,
                        options.x)) {
  for (int i = 0; i < options.n; ++i) {
    if (options.recoverable) {
      sim_->add_process(std::make_unique<RecoverableReplicaProcess>(
          model_, delays_, *options.recoverable));
    } else if (options.hardened) {
      sim_->add_process(std::make_unique<HardenedReplicaProcess>(
          model_, delays_, *options.hardened));
    } else {
      sim_->add_process(std::make_unique<ReplicaProcess>(model_, delays_));
    }
  }
}

ReplicaProcess& ReplicaSystem::replica(ProcessId pid) {
  return dynamic_cast<ReplicaProcess&>(sim_->process(pid));
}

CentralizedSystem::CentralizedSystem(std::shared_ptr<const ObjectModel> model,
                                     const SystemOptions& options)
    : ObjectSystem(std::move(model), options) {
  if (options.give_up_after < 0) {
    throw std::invalid_argument(
        "SystemOptions::give_up_after must be >= 0 (0 = wait forever)");
  }
  for (int i = 0; i < options.n; ++i) {
    sim_->add_process(std::make_unique<CentralizedProcess>(
        model_, /*coordinator=*/0, options.give_up_after));
  }
}

TobSystem::TobSystem(std::shared_ptr<const ObjectModel> model,
                     const SystemOptions& options)
    : ObjectSystem(std::move(model), options) {
  if (options.give_up_after < 0) {
    throw std::invalid_argument(
        "SystemOptions::give_up_after must be >= 0 (0 = wait forever)");
  }
  for (int i = 0; i < options.n; ++i) {
    sim_->add_process(std::make_unique<TobProcess>(model_, /*sequencer=*/0,
                                                   options.give_up_after));
  }
}

}  // namespace linbound
