package bench

import (
	"fmt"
	"math"
	"math/rand/v2"

	"specglobe/internal/core"
	"specglobe/internal/service"
	"specglobe/internal/stations"
)

// GoldenSeed is the seed whose generated inputs the committed golden
// references were recorded for (the default -seed). Every run replays
// these inputs in its discarded warm-up rep and checks them against
// the reference, whatever seed its timed reps use.
const GoldenSeed = 1

// nearPerEvent is the number of near-field check stations generated
// per event.
const nearPerEvent = 3

// Scenario is one generated event with its near-field check stations
// (1 to 5 degrees from the epicenter, so their signals are non-zero
// within a short run).
type Scenario struct {
	Event core.Event
	Near  []stations.Station
}

// newRand returns the deterministic generator of a (seed, stream)
// pair. Streams keep the workloads' inputs independent: adding an
// event to one workload does not shift another's.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// genScenario draws one event — uniform on the sphere within ±58° of
// latitude, 30 to 250 km deep (always in the solid crust/mantle), a
// random deviatoric moment tensor of scalar moment 1e20 N·m — and its
// near-field stations, named tag_N0.. so that jobs batched into one
// ensemble never reuse a station name with different coordinates.
func genScenario(rng *rand.Rand, tag string) Scenario {
	lat := math.Asin(0.85*(2*rng.Float64()-1)) * 180 / math.Pi
	lon := 360*rng.Float64() - 180
	ev := core.Event{
		Name:            tag,
		LatDeg:          lat,
		LonDeg:          lon,
		DepthM:          30e3 + 220e3*rng.Float64(),
		HalfDurationSec: 5,
	}
	// Random symmetric traceless tensor, scaled to M0 = 1e20.
	d := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	tr := (d[0] + d[1] + d[2]) / 3
	ev.Mrr, ev.Mtt, ev.Mpp = d[0]-tr, d[1]-tr, d[2]-tr
	ev.Mrt, ev.Mrp, ev.Mtp = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	s := 1e20 / ev.ScalarMoment()
	ev.Mrr, ev.Mtt, ev.Mpp = ev.Mrr*s, ev.Mtt*s, ev.Mpp*s
	ev.Mrt, ev.Mrp, ev.Mtp = ev.Mrt*s, ev.Mrp*s, ev.Mtp*s

	sc := Scenario{Event: ev}
	for i := 0; i < nearPerEvent; i++ {
		dist := (1 + 4*rng.Float64()) * math.Pi / 180
		az := 2 * math.Pi * rng.Float64()
		slat, slon := destination(lat, lon, dist, az)
		sc.Near = append(sc.Near, stations.Station{
			Name: fmt.Sprintf("%s_N%d", tag, i), Network: "XX", LatDeg: slat, LonDeg: slon,
		})
	}
	return sc
}

// destination returns the point at angular distance dist (radians) and
// azimuth az from (latDeg, lonDeg) on the unit sphere.
func destination(latDeg, lonDeg, dist, az float64) (float64, float64) {
	lat, lon := latDeg*math.Pi/180, lonDeg*math.Pi/180
	lat2 := math.Asin(math.Sin(lat)*math.Cos(dist) + math.Cos(lat)*math.Sin(dist)*math.Cos(az))
	lon2 := lon + math.Atan2(math.Sin(az)*math.Sin(dist)*math.Cos(lat),
		math.Cos(dist)-math.Sin(lat)*math.Sin(lat2))
	lonDeg2 := math.Mod(lon2*180/math.Pi+540, 360) - 180
	return lat2 * 180 / math.Pi, lonDeg2
}

// genScenarios draws the scenarios one repetition of a workload
// consumes. Scenario i of a given (seed, workload) pair is always the
// same.
func genScenarios(seed uint64, workload string) []Scenario {
	def := defs[workload]
	rng := newRand(seed, workload)
	out := make([]Scenario, def.scenarios)
	for i := range out {
		out[i] = genScenario(rng, fmt.Sprintf("%s%d", def.tag, i))
	}
	return out
}

// burstJobs is the job mix of one service burst: three compatibility
// keys on one mesh shape. The two keys that differ only in step count
// are where a mesh-key / run-key split would show as fewer session
// builds.
func burstJobs(sz Sizes, scs []Scenario, burst string) []service.JobSpec {
	type variant struct {
		steps int
		att   bool
	}
	long, short, att := variant{sz.ServiceSteps, false}, variant{sz.ServiceSteps / 2, false}, variant{sz.ServiceSteps, true}
	// Interleaved so that consecutive submissions alternate keys and
	// the two connections (even / odd index) both carry every key.
	mix := []variant{long, long, short, short, long, long, att, att}
	jobs := make([]service.JobSpec, len(mix))
	for i, v := range mix {
		sc := scs[i]
		ev := sc.Event
		spec := service.JobSpec{
			Name:  fmt.Sprintf("%s-%s", burst, ev.Name),
			Model: "earthlike", NexXi: sz.ServiceNex, NProcXi: 1,
			Steps: v.steps, Attenuation: v.att,
			Event: &service.EventSpec{
				LatDeg: ev.LatDeg, LonDeg: ev.LonDeg, DepthM: ev.DepthM,
				Mrr: ev.Mrr, Mtt: ev.Mtt, Mpp: ev.Mpp, Mrt: ev.Mrt, Mrp: ev.Mrp, Mtp: ev.Mtp,
				HalfDurationSec: ev.HalfDurationSec,
			},
		}
		for _, st := range stations.ReferenceStations()[:4] {
			spec.Stations = append(spec.Stations, service.StationSpec{Name: st.Name})
		}
		for _, st := range sc.Near {
			lat, lon := st.LatDeg, st.LonDeg
			spec.Stations = append(spec.Stations, service.StationSpec{Name: st.Name, LatDeg: &lat, LonDeg: &lon})
		}
		jobs[i] = spec
	}
	return jobs
}

// burstSourceSteps is the number of source-steps one burst carries.
func burstSourceSteps(jobs []service.JobSpec) int {
	n := 0
	for _, j := range jobs {
		n += j.Steps
	}
	return n
}
