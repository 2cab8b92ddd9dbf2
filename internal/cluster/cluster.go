// Package cluster turns the sweep engine into a fault-tolerant
// distributed system: a coordinator shards a sweep's grid points across N
// worker processes over the serving layer's streaming-NDJSON API, designed
// failure-first.
//
// The unit of distribution is the lease: a batch of sweep.Key-addressed
// points (sweep.PointDef) handed to one worker with a no-progress
// deadline. Points are assigned by consistent hashing over their result
// keys, so each worker's single-flight dedupe cache naturally owns a
// stable shard of the keyspace. The coordinator tracks worker liveness
// via heartbeats; on lease expiry, worker death or connection loss it
// re-queues every point the lease did not deliver. Results commit exactly
// once: the first delivery of a point claims its grid index and lands in
// the sweep's fsynced NDJSON journal; later deliveries of the same index
// (requeue races, speculative re-issue) are counted and dropped. The
// final result set is therefore bit-identical to a single-process run —
// the same guarantee the journal already gives kill/resume.
//
// Failure matrix (see DESIGN.md §13 for the full argument):
//
//   - Worker death: heartbeats stop and open connections break; every
//     unjournaled point of its leases re-queues to the surviving ring.
//   - Coordinator death: workers finish their in-flight leases, journal
//     results locally, and keep trying to re-register; resubmitting the
//     sweep on a restarted coordinator replays its journal and re-runs
//     only what is missing (workers answer replayed points from their
//     local journals without re-simulating).
//   - Partition: indistinguishable from worker death on the coordinator
//     side (points re-queue); the isolated worker finishes and journals
//     its lease, then re-registers when the partition heals. Duplicated
//     work is absorbed by exactly-once commit.
//   - Straggler: when the queue is otherwise empty, a lease stalled past
//     the speculation threshold is re-issued to an idle worker; first
//     delivery wins, the loser's results are dropped as duplicates.
//
// The wire types of the cluster protocol (fbdclient.Lease, WorkerInfo,
// Counters and the join/heartbeat bodies) are defined once, in
// pkg/fbdclient, so the coordinator, the worker agent and external tools
// compile against a single contract.
package cluster
