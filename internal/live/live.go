// Package live closes the loop between the cluster simulator and the
// offline Schism pipeline, turning the one-shot trace→partition tool the
// paper describes (§2, §7 leaves "workload changes over time" to the
// operator) into an online control loop:
//
//   - a capture hook (cluster.Coordinator.SetCapture → Window.Record)
//     streams every committed transaction's observed read/write set into a
//     ring-buffered sliding window held in the dense interned
//     representation, with optional exponential decay of repeated access
//     signatures;
//   - a drift Detector periodically re-scores the deployed strategy
//     against the live window via partition.EvaluateAssignmentsCompact and
//     flags degradation of the distributed-transaction rate or of load
//     balance;
//   - a Repartitioner rebuilds the window's hypergraph (graph.BuildHyper)
//     and cuts it with metis.PartHKway, or refines the projected deployed
//     placement with RefineHKway on warm cycles (holding one metis.Solver
//     for allocation-free steady state), and relabels the fresh
//     partitioning against the deployed one with a greedy max-weight part
//     matching (partition.RelabelMap), so label churn — and therefore
//     migration volume — is minimal;
//   - a migration Plan diffs old and new dense assignments into per-tuple
//     move operations, and an Executor applies them through the cluster
//     nodes in small locking transactions while traffic continues,
//     flipping per-key routing entries as batches commit and counting
//     moved tuples, in-flight aborts, and time-to-converge.
//
// The Controller ties the pieces together. It can run synchronously
// (Tick, used by the deterministic drift experiments and tests) or in the
// background off the capture stream (Start/Stop, used by the cluster
// experiments).
package live
