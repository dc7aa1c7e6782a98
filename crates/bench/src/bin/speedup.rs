//! §6.2 headline: design-space evaluation speedup — profile-once + model
//! versus per-point cycle-level simulation (wall-clock, so excluded from
//! the deterministic report), plus served predict throughput with
//! micro-batching on vs off.
//!
//! Thin front-end over the shared figure registry: builds the typed
//! figures and renders them through `pmt_bench::emit`.

fn main() {
    pmt_bench::run_binary("speedup");
}
