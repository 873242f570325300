// Package schism is a from-scratch Go reproduction of "Schism: a
// Workload-Driven Approach to Database Replication and Partitioning"
// (Curino, Jones, Zhang, Madden — VLDB 2010).
//
// The library lives under internal/: the pipeline in internal/core, the
// substrates (graph builder, multilevel min-cut partitioner, C4.5-class
// decision tree, SQL parser, storage engine, 2PL/2PC cluster simulator,
// router, lookup tables, workload generators) in sibling packages, and the
// paper's evaluation in internal/experiments. The trace→graph→CSR hot
// path works on interned dense tuple ids (workload.Interner) with
// the CSR written directly, row by row, identically at any worker count;
// the explanation phase trains its decision trees columnar
// (SLIQ/SPRINT-style pre-sorted index columns, parallel and
// byte-identical at any worker count, differential-tested against the
// seed C4.5); and statement routing resolves through one layered
// placement, partition.Lookup: the explanation's rules, then compressed
// lookup tables of their exceptions (internal/lookup: one table type,
// set-dictionary ids in dense slots or a sparse side map, behind
// lookup.Router, fuzz-tested against a map model). DESIGN.md
// documents those layers; bench/ (its own module, declared by
// BENCHMARK.json) measures them end to end and per layer.
//
// Beyond the paper's one-shot pipeline, internal/live turns the system
// adaptive: a capture hook on the cluster coordinator streams committed
// transactions' read/write sets into a ring-buffered window, a drift
// detector re-scores the deployed placement against it, and an
// incremental repartitioner reruns the graph pipeline, relabels the
// result for minimal movement, and migrates tuples through the cluster
// while traffic continues (see DESIGN.md, "Online repartitioning", and
// examples/drift).
//
// The paper's headline claim — fewer distributed transactions means
// higher throughput — is measured end to end by internal/driver: a
// concurrent benchmark harness that drives the cluster coordinator with
// closed-loop clients executing
// deterministic per-client transaction streams (internal/workloads
// streams; byte-identical sequences at any GOMAXPROCS), records latency
// in a lock-free sharded HDR-style histogram (p50/p95/p99/p999), and
// reports throughput, distributed-transaction and per-statement
// distribution rates, abort/retry rates, and per-node load imbalance.
// `experiments -run bench` runs the same TPC-C streams under Schism
// lookup routing vs hash vs range vs full-replication and prints the
// Fig. 6/7-style comparison; DESIGN.md ("Benchmark driver") documents
// the harness, and BENCH_5.json keeps a frozen 3-iteration snapshot of
// its numbers.
//
// A client's transaction is a function the coordinator runs: RunTxn
// begins it, hands fn the Txn, commits when fn returns nil, aborts
// otherwise and retries concurrency-control aborts. Inside fn, clients
// hand the coordinator statements two ways. Txn.Exec(sql) takes ad-hoc
// text. A statement issued repeatedly is prepared once and bound
// per call:
//
//	var stockOf = sqlparse.MustPrepare("SELECT * FROM stock WHERE s_key = ? AND s_w_id = ?")
//	...
//	rows, err := t.ExecPrepared(stockOf, datum.NewInt(key), datum.NewInt(w))
//
// Prepare parses the text and derives the table, the write flag and the
// routing-constraint skeleton; a call fills the skeleton from its
// arguments, routes, and ships the shared template plus the arguments
// and constraints to the nodes, which parse and extract nothing. Both
// ways converge on one internal plan and one executor (DESIGN.md,
// "Statement path"); every client stream in internal/workloads and
// internal/experiments runs on prepared statements.
//
// The whole stack is observable through internal/obs: a registry of
// counters, gauges and the driver's lock-free HDR histograms (lifted
// into obs and re-exported by internal/driver) that time each
// transaction's route/prepare/commit/quorum-append/WAL-force phases, and
// a bounded event timeline (crashes, elections, lease expiries,
// migrations, chaos triggers) that resolves a failover into
// detect→elect→barrier→first-commit. Instrumentation follows a "nil
// means off" rule — with no registry configured every recording site
// costs one branch, so the uninstrumented fast path stays the benchmark
// baseline (DESIGN.md, "Observability"; the frozen BENCH_8.json
// snapshot). `-obs addr` on cmd/experiments serves JSON snapshots,
// expvar and pprof over HTTP while a run executes.
//
// Run the partitioner with cmd/schism and everything else with
// cmd/experiments: the paper's evaluation, the online-repartitioning
// experiment (`experiments -run drift`) and the end-to-end strategy
// comparison (`experiments -run bench`).
package schism
