// Package service turns the batch solver into the long-running
// simulation service the paper's operational setting describes
// (section 5's "routine simulation of globally recorded earthquakes"):
// a daemon that owns built meshes, queues scenario jobs, groups
// compatible jobs into multi-source ensemble batches
// (core.Session.RunBatchStream), and streams seismogram chunks back to
// each client as the integrator advances.
//
// The pipeline is queue -> batcher -> session -> stream:
//
//   - Submit validates a JobSpec and enqueues it under its CompatKey —
//     the tuple of everything two jobs must share to ride one ensemble
//     (model, mesh resolution, doubling schedule, step count, dt,
//     record cadence, physics switches, kernel). Anything else
//     (event mechanism/position, station list, name) is per-wavefield
//     state and may differ freely within a batch. The wire decoder
//     ignores a key it does not know, the retired "lts" among them.
//   - The batcher dispatches a key's queue when MaxBatch jobs are
//     waiting or the oldest has waited Window (measured on the injected
//     Clock, never the wall clock directly, so replay under a fake
//     clock is deterministic).
//   - A keyed LRU session cache holds one built core.Session per
//     CompatKey under a memory budget (meshio.MeshBytes), so the
//     expensive mesher runs once per distinct configuration, not once
//     per job.
//   - Results stream: each job's stations emit append-only chunks
//     (core.RunBatchStream) that concatenate to a series bit-identical
//     to the job's direct single-source core.Run.
//
// Failure isolation is per job: a malformed request, unknown model or
// station, an event in the fluid core, a client gone mid-stream, or a
// session that cannot fit the memory budget each fail only the
// offending job with a typed *Error while the rest of the queue
// drains. See DESIGN.md "Simulation as a service".
package service
