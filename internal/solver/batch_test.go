package solver

import (
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
)

// batchGlobeSources places distinct sources (position, mechanism, STF)
// for an ensemble run on a globe, one per field, plus shared receivers.
func batchGlobeSources(t testing.TB, g *meshfem.Globe, n int) ([]Source, []Receiver) {
	t.Helper()
	type loc struct{ lat, lon, depth float64 }
	at := []loc{{0, 0, 100e3}, {8, -4, 220e3}, {-6, 10, 60e3}, {3, 17, 350e3}}
	if n > len(at) {
		t.Fatalf("batchGlobeSources supports up to %d sources", len(at))
	}
	srcs := make([]Source, n)
	for i := 0; i < n; i++ {
		sl, err := g.LocateLatLonDepth(at[i].lat, at[i].lon, at[i].depth)
		if err != nil {
			t.Fatal(err)
		}
		m0 := 1e20 * float64(i+1)
		srcs[i] = Source{
			Rank: sl.Rank, Kind: sl.Kind, Elem: sl.Elem, Ref: sl.Ref, Field: i,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, -m0 / 2, m0 / 4}, {0, m0 / 4, -m0 / 2}},
			STF:          GaussianSTF(10+2*float64(i), 25),
		}
	}
	var recvs []Receiver
	for i, p := range []loc{{20, 30, 0}, {6, 0, 0}} {
		rl, err := g.LocateLatLonDepth(p.lat, p.lon, p.depth)
		if err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, Receiver{
			Name: string(rune('A' + i)), Rank: rl.Rank, Kind: rl.Kind, Elem: rl.Elem, Ref: rl.Ref,
		})
	}
	return srcs, recvs
}

// The tentpole correctness bar: every batched seismogram must be
// bit-identical to its own single-source run — batching changes WHEN
// each field's arithmetic happens (all fields per element sweep, all
// fields per halo message), never WHAT it computes. The matrix runs on
// the coupled doubled globe (solid + fluid + CMB/ICB coupling +
// cross-rank halos) at Workers 1 and 4.
func TestBatchedBitIdenticalToSingleSource(t *testing.T) {
	g, model := doubledGlobe(t)
	const nsrc = 2
	const steps = 24
	srcs, recvs := batchGlobeSources(t, g, nsrc)

	for _, workers := range []int{1, 4} {
		name := schedule + map[int]string{1: "/w1", 4: "/w4"}[workers]
		t.Run(name, func(t *testing.T) {
			opts := Options{Steps: steps, Workers: workers}
			batched, err := Run(&Simulation{
				Locals: g.Locals, Plans: g.Plans, Model: model,
				Sources: srcs, Receivers: recvs, Opts: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if batched.NumFields != nsrc || len(batched.BySource) != nsrc {
				t.Fatalf("NumFields=%d BySource=%d, want %d", batched.NumFields, len(batched.BySource), nsrc)
			}
			for i := 0; i < nsrc; i++ {
				single := srcs[i]
				single.Field = 0
				res, err := Run(&Simulation{
					Locals: g.Locals, Plans: g.Plans, Model: model,
					Sources: []Source{single}, Receivers: recvs, Opts: opts,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recvs {
					got := batched.BySource[i][r.Name]
					want := res.Seismograms[r.Name]
					if got == nil || want == nil {
						t.Fatalf("source %d station %s missing", i, r.Name)
					}
					if got.Field != i {
						t.Errorf("source %d station %s: Field = %d", i, r.Name, got.Field)
					}
					identical(t, name+"/src"+string(rune('0'+i))+"/"+r.Name, want, got)
				}
			}
		})
	}
}

// Same bar per force-kernel variant on a multi-rank box: the chunk
// functions nest the ensemble loop inside the element visit, and the
// per-field arithmetic must not notice.
func TestBatchedBitIdenticalKernels(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 2, L)
	srcs := []Source{
		boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0),
		boxSource(t, b, L/2-6e3, L/2+4e3, L/2-2e3, 3e17, 1.4),
		boxSource(t, b, L/2+5e3, L/2-7e3, L/2+3e3, 2e17, 0.8),
	}
	for i := range srcs {
		srcs[i].Field = i
	}
	recvs := []Receiver{
		boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2),
		boxReceiver(t, b, "N", L/2-10e3, L/2-2e3, L/2+8e3),
	}
	for _, kv := range []Kernel{KernelScalar, KernelVec4} {
		t.Run(kv.String(), func(t *testing.T) {
			opts := Options{Steps: 30, Kernel: kv, Workers: 2, Attenuation: true}
			batched, err := Run(&Simulation{
				Locals: b.Locals, Plans: b.Plans,
				Sources: srcs, Receivers: recvs, Opts: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range srcs {
				single := srcs[i]
				single.Field = 0
				res, err := Run(&Simulation{
					Locals: b.Locals, Plans: b.Plans,
					Sources: []Source{single}, Receivers: recvs, Opts: opts,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recvs {
					identical(t, kv.String()+"/src"+string(rune('0'+i))+"/"+r.Name,
						res.Seismograms[r.Name], batched.BySource[i][r.Name])
				}
			}
		})
	}
}

// Result surface of a batched run: BySource[0] aliases Seismograms,
// source-steps/sec scales with the field count, and a negative Field is
// rejected.
func TestBatchedResultSurface(t *testing.T) {
	const L = 30e3
	b := buildBox(t, 3, 1, L)
	srcs := []Source{
		boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0),
		boxSource(t, b, L/2+3e3, L/2, L/2, 1e17, 1.0),
	}
	srcs[1].Field = 1
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans, Sources: srcs,
		Receivers: []Receiver{boxReceiver(t, b, "R", L/2+8e3, L/2, L/2)},
		Opts:      Options{Steps: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFields != 2 {
		t.Fatalf("NumFields = %d, want 2", res.NumFields)
	}
	if &res.Seismograms == nil || res.BySource[0]["R"] != res.Seismograms["R"] {
		t.Error("Seismograms does not alias BySource[0]")
	}
	if res.SourceStepsPerSec <= 0 {
		t.Error("SourceStepsPerSec not recorded")
	}
	want := 2 * float64(res.Steps) / res.Perf.WallTime.Seconds()
	if diff := res.SourceStepsPerSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SourceStepsPerSec = %g, want %g", res.SourceStepsPerSec, want)
	}

	bad := srcs[1]
	bad.Field = -1
	if _, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans, Sources: []Source{bad},
		Opts: Options{Steps: 1},
	}); err == nil {
		t.Error("negative Field accepted")
	}
	if _, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources: []Source{{Kind: earthmodel.RegionCrustMantle, Field: -2,
			STF: func(float64) float64 { return 0 }}},
		Opts: Options{Steps: 1},
	}); err == nil {
		t.Error("negative Field accepted (validation order)")
	}
}
