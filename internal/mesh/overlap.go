package mesh

// Overlap classifies each region's elements for the communication/
// computation overlap schedule of the paper's section 5: *outer*
// elements contribute at least one GLL point to a halo edge (a point
// shared with another rank), *inner* elements touch only rank-private
// points. The solver computes outer-element forces first, posts the
// non-blocking halo exchange, computes inner elements while messages
// are in flight, and only then waits.
//
// Both lists are in ascending element order, so iterating Outer then
// Inner visits every element exactly once with a stable, deterministic
// ordering.
type Overlap struct {
	// Outer and Inner hold element indices per region kind
	// (earthmodel.Region). A region with no halo edges has every
	// element in Inner.
	Outer, Inner [3][]int32
}

// BuildOverlap classifies the elements of one rank's regions against
// its halo plan.
func BuildOverlap(l *Local, plan *HaloPlan) *Overlap {
	ov := &Overlap{}
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		// Non-nil even when empty: the force kernels treat a nil element
		// list as "sweep everything", so a rank with no halo edges must
		// still hand them an empty outer list, not a nil one.
		ov.Outer[kind] = make([]int32, 0, reg.NSpec)
		ov.Inner[kind] = make([]int32, 0, reg.NSpec)
		halo := make([]bool, reg.NGlob)
		for _, e := range plan.Edges[kind] {
			for _, idx := range e.Idx {
				halo[idx] = true
			}
		}
		for e := 0; e < reg.NSpec; e++ {
			outer := false
			for _, g := range reg.Ibool[e*NGLL3 : (e+1)*NGLL3] {
				if halo[g] {
					outer = true
					break
				}
			}
			if outer {
				ov.Outer[kind] = append(ov.Outer[kind], int32(e))
			} else {
				ov.Inner[kind] = append(ov.Inner[kind], int32(e))
			}
		}
	}
	return ov
}

// OuterFraction returns the fraction of this rank's elements that are
// outer — the work that cannot be overlapped with communication. It
// shrinks as the per-rank slice grows (surface-to-volume), which is why
// the paper's overlap keeps working at 62K ranks.
func (ov *Overlap) OuterFraction() float64 {
	outer, total := 0, 0
	for kind := 0; kind < 3; kind++ {
		outer += len(ov.Outer[kind])
		total += len(ov.Outer[kind]) + len(ov.Inner[kind])
	}
	if total == 0 {
		return 0
	}
	return float64(outer) / float64(total)
}

// CouplingSplit refines the Overlap classification for the pipelined
// fluid→solid coupling schedule: the CMB/ICB coupling integrals consume
// field values only at the boundary-face GLL points, so a schedule that
// wants those values final *early* (before the region's full force
// sweep completes) must know which elements contribute to them. Each
// region's elements are partitioned three ways:
//
//   - HaloOuter: touches at least one halo point (a point shared with
//     another rank). Identical to Overlap.Outer — these must be
//     computed before the halo exchange is posted.
//   - CouplingOuter: touches a CMB/ICB coupling point of this region
//     but no halo point. Computing these together with HaloOuter makes
//     every coupling-point contribution final as soon as the halo
//     completes, without waiting for the Inner sweep.
//   - Inner: touches neither. Free to run while a halo is in flight.
//
// All three lists are in ascending element order; concatenating
// HaloOuter, CouplingOuter and Inner visits every element exactly once.
// For the fluid region the coupling points are the FluidPt entries of
// the rank's CMB and ICB faces; for a solid region, the SolidPt entries
// of the faces whose SolidKind matches.
type CouplingSplit struct {
	HaloOuter, CouplingOuter, Inner [3][]int32
}

// BuildCouplingSplit classifies the elements of one rank's regions
// against its halo plan and its fluid-solid coupling faces.
func BuildCouplingSplit(l *Local, plan *HaloPlan) *CouplingSplit {
	cs := &CouplingSplit{}
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		// Non-nil even when empty, matching BuildOverlap: the force
		// kernels treat a nil element list as "sweep everything".
		cs.HaloOuter[kind] = make([]int32, 0, reg.NSpec)
		cs.CouplingOuter[kind] = make([]int32, 0, reg.NSpec)
		cs.Inner[kind] = make([]int32, 0, reg.NSpec)
		halo := make([]bool, reg.NGlob)
		for _, e := range plan.Edges[kind] {
			for _, idx := range e.Idx {
				halo[idx] = true
			}
		}
		couple := make([]bool, reg.NGlob)
		markFaces(couple, kind, reg, l.CMB)
		markFaces(couple, kind, reg, l.ICB)
		for e := 0; e < reg.NSpec; e++ {
			isHalo, isCouple := false, false
			for _, g := range reg.Ibool[e*NGLL3 : (e+1)*NGLL3] {
				if halo[g] {
					isHalo = true
					break
				}
				if couple[g] {
					isCouple = true
				}
			}
			switch {
			case isHalo:
				cs.HaloOuter[kind] = append(cs.HaloOuter[kind], int32(e))
			case isCouple:
				cs.CouplingOuter[kind] = append(cs.CouplingOuter[kind], int32(e))
			default:
				cs.Inner[kind] = append(cs.Inner[kind], int32(e))
			}
		}
	}
	return cs
}

// markFaces sets the coupling-point flags one region sees on a face
// list: the fluid degrees of freedom for the fluid region, the solid
// ones for the matching solid region.
func markFaces(couple []bool, kind int, reg *Region, faces []CoupleFace) {
	for fi := range faces {
		cf := &faces[fi]
		if reg.IsFluid() {
			for _, idx := range cf.FluidPt {
				couple[idx] = true
			}
		} else if int(cf.SolidKind) == kind {
			for _, idx := range cf.SolidPt {
				couple[idx] = true
			}
		}
	}
}
