package solver

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
	"specglobe/internal/simd"
)

// updateFrozen rewrites testdata/frozen_bits.json from the current
// code. Only legitimate after a change that is MEANT to alter the
// arithmetic or the traffic; a refactor must replay the committed file.
var updateFrozen = flag.Bool("update-frozen", false, "rewrite testdata/frozen_bits.json from this build")

const frozenPath = "testdata/frozen_bits.json"

// frozenFixture is the cross-commit bit-identity record: same-commit
// `==` tests compare two runs of one build and cannot see a refactor
// that moves both sides.
type frozenFixture struct {
	GOARCH string       `json:"goarch"`
	Cases  []frozenCase `json:"cases"`
}

type frozenCase struct {
	Name      string `json:"name"`
	Messages  int64  `json:"messages"`
	BytesSent int64  `json:"bytes_sent"`
	// Stations maps "name/field" to the FNV-64a of the series' float32
	// bits (X, then Y, then Z).
	Stations map[string]string `json:"stations"`
}

// frozenConfigs is the replayed matrix: each axis value appears at
// least twice, not the full product. The 24-rank mesh is the one where
// crust/mantle and inner-core peer sets differ. The physics cases
// (name suffix fullPhysicsSuffix, CI counts them) turn on attenuation,
// rotation, gravity and the ocean load on the doubled PREM mesh for 40
// steps — long enough for the near station to carry signal — under
// every kernel.
var frozenConfigs = []struct {
	mesh     string // "globe", "doubled", "sliced" or "prem"
	combined bool
	fields   int
	workers  int
	physics  bool
	kernel   Kernel
}{
	{"globe", true, 1, 1, false, KernelVec4},
	{"globe", false, 3, 4, false, KernelVec4},
	{"globe", true, 3, 1, false, KernelVec4},
	{"globe", false, 1, 4, false, KernelVec4},
	{"doubled", true, 1, 4, false, KernelVec4},
	{"doubled", false, 1, 1, false, KernelVec4},
	{"doubled", true, 3, 4, false, KernelVec4},
	{"doubled", false, 3, 2, false, KernelVec4},
	{"doubled", true, 3, 1, false, KernelVec4},
	{"sliced", true, 1, 1, false, KernelVec4},
	{"sliced", false, 3, 4, false, KernelVec4},
	{"prem", true, 1, 4, true, KernelVec4},
	{"prem", true, 3, 1, true, KernelVec4},
	{"prem", false, 1, 2, true, KernelScalar},
	{"prem", true, 3, 4, true, KernelVec4},
	{"prem", true, 1, 1, true, KernelScalar},
}

const fullPhysicsSuffix = "/fullphys"

func hashSeries(sg *Seismogram) string {
	h := fnv.New64a()
	var b [4]byte
	for _, comp := range [][]float32{sg.X, sg.Y, sg.Z} {
		for _, v := range comp {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestFrozenSeismogramBits(t *testing.T) {
	var want frozenFixture
	if !*updateFrozen {
		raw, err := os.ReadFile(frozenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if want.GOARCH != runtime.GOARCH {
			t.Skipf("fixture recorded on %s, running on %s: FMA fusion is per-architecture", want.GOARCH, runtime.GOARCH)
		}
		if len(want.Cases) != len(frozenConfigs) {
			t.Fatalf("fixture has %d cases, matrix has %d", len(want.Cases), len(frozenConfigs))
		}
	}

	type built struct {
		g     *meshfem.Globe
		model earthmodel.Model
	}
	meshes := map[string]built{}
	meshFor := func(name string) built {
		if b, ok := meshes[name]; ok {
			return b
		}
		var b built
		switch name {
		case "globe":
			b.g, b.model = coupledGlobe(t, 4, 1)
		case "sliced":
			b.g, b.model = coupledGlobe(t, 4, 2)
		case "prem":
			b.g, b.model = premDoubledGlobe(t)
		default:
			b.g, b.model = doubledGlobe(t)
		}
		meshes[name] = b
		return b
	}

	// Both bodies of the vec4 contractions and the pointwise stages must
	// replay the fixture: the assembly on hosts that have it, and the Go
	// fallback every other host runs. A re-record takes the Go body's
	// bits, which the assembly then has to match.
	var got frozenFixture
	replay := func(t *testing.T) {
		got = frozenFixture{GOARCH: runtime.GOARCH}
		for i, c := range frozenConfigs {
			name := fmt.Sprintf("%s/combined=%v/s%d/w%d",
				c.mesh, c.combined, c.fields, c.workers)
			steps := 12
			if c.physics {
				name += "/" + c.kernel.String() + fullPhysicsSuffix
				steps = 40
			}
			m := meshFor(c.mesh)
			srcs, recvs := batchGlobeSources(t, m.g, c.fields)
			res, err := Run(&Simulation{
				Locals: m.g.Locals, Plans: m.g.Plans, Model: m.model,
				Sources: srcs, Receivers: recvs,
				Opts: Options{
					Steps: steps, Workers: c.workers,
					CombinedSolidHalo: c.combined, Kernel: c.kernel,
					Attenuation: c.physics, Rotation: c.physics, Gravity: c.physics, OceanLoad: c.physics,
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fc := frozenCase{
				Name: name, Messages: res.MPI.Messages, BytesSent: res.MPI.BytesSent,
				Stations: map[string]string{},
			}
			signal := false
			for f, by := range res.BySource {
				for st, sg := range by {
					fc.Stations[fmt.Sprintf("%s/%d", st, f)] = hashSeries(sg)
					signal = signal || maxAbs(sg.X)+maxAbs(sg.Y)+maxAbs(sg.Z) > 0
				}
			}
			if !signal {
				t.Fatalf("%s: no signal — the frozen hash is vacuous", name)
			}
			got.Cases = append(got.Cases, fc)
			if *updateFrozen {
				continue
			}
			w := want.Cases[i]
			if w.Name != name {
				t.Fatalf("case %d: fixture is %q, matrix is %q", i, w.Name, name)
			}
			if fc.Messages != w.Messages || fc.BytesSent != w.BytesSent {
				t.Errorf("%s: traffic %d msgs / %d B, frozen %d msgs / %d B",
					name, fc.Messages, fc.BytesSent, w.Messages, w.BytesSent)
			}
			if len(fc.Stations) != len(w.Stations) {
				t.Errorf("%s: %d series, frozen %d", name, len(fc.Stations), len(w.Stations))
			}
			for key, h := range w.Stations {
				if fc.Stations[key] != h {
					t.Errorf("%s: series %s hashes to %s, frozen %s", name, key, fc.Stations[key], h)
				}
			}
		}
	}
	if *updateFrozen {
		simd.ForceGo(t)
		replay(t)
	} else {
		bothBodies(t, replay)
	}

	if *updateFrozen {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frozenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", frozenPath)
	}
}
