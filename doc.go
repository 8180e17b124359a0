// Package specglobe is a Go reproduction of "High-Frequency Simulations
// of Global Seismic Wave Propagation Using SPECFEM3D_GLOBE on 62K
// Processors" (Carrington et al., SC 2008): a spectral-element solver
// for global seismic wave propagation on a cubed-sphere mesh of the
// Earth, together with the scaling and performance-modeling machinery
// the paper is about.
//
// The repository layout follows the paper's structure:
//
//   - internal/meshfem — the mesher (cubed sphere, PREM layering,
//     inflated central cube, slice decomposition, mesh-doubling layers
//     with wavelength-derived schedules)
//   - internal/earthmodel — PREM and test models, the gravity and
//     minimum-wavelength profiles, attenuation fits
//   - internal/solver — the solver (Newmark time scheme, solid and
//     fluid kernels, fluid-solid coupling, attenuation, rotation,
//     gravity, ocean load)
//   - internal/mpi — a simulated message-passing runtime with a
//     virtual interconnect model
//   - internal/simd — the 4-wide vector kernels of section 4.3
//   - internal/renumber — Cuthill-McKee element sorting of section 4.2
//   - internal/meshio — the legacy 51-files-per-core database that the
//     merge of section 4.1 removed, kept as the instrument of figure 5
//     and IOMERGE
//   - internal/perfmodel, internal/experiments — the section 5 models
//     and the regeneration of every figure and table
//   - internal/core — the public façade used by cmd/ and examples/
//
// cmd/paperfigs regenerates each evaluation artifact and cmd/specbench
// measures end-to-end performance; see README.md for the quickstart and
// the two instruments, DESIGN.md for the experiment index, and
// EXPERIMENTS.md for paper-versus-measured results.
package specglobe
