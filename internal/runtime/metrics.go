package runtime

import "repro/internal/obs"

// Task lifecycle instrumentation, aggregated across every Runtime in the
// process (the daemon runs one per executing study). Cancellations are
// classified at finish time via errors.Is(err, ErrCanceled) — Prometheus
// counters cannot decrement, so the internal failed--/canceled++
// compensation the Stats counters use is not an option here.
var (
	obsTasksSubmitted = obs.Default().Counter("hpo_runtime_tasks_submitted_total",
		"Task invocations submitted to a runtime.")
	obsTasksStarted = obs.Default().Counter("hpo_runtime_tasks_started_total",
		"Task attempts placed on a node (retries count again).")
	obsTasksCompleted = obs.Default().Counter("hpo_runtime_tasks_completed_total",
		"Invocations finished successfully.")
	obsTasksFailed = obs.Default().Counter("hpo_runtime_tasks_failed_total",
		"Invocations finished failed (retries exhausted or dependency failure).")
	obsTasksRetried = obs.Default().Counter("hpo_runtime_tasks_retried_total",
		"Failed attempts re-queued for another try (worker deaths included).")
	obsTasksCanceled = obs.Default().Counter("hpo_runtime_tasks_canceled_total",
		"Invocations finished canceled, dependency cascades included.")
	obsBusyCores = obs.Default().Gauge("hpo_runtime_busy_cores",
		"Cores currently allocated to running tasks, across all runtimes.")
	obsExtendLatency = obs.Default().Histogram("hpo_runtime_extend_grant_latency_seconds",
		"Wall-clock latency of delivering a budget-extension grant to a running task.",
		obs.DurationBuckets())
)
