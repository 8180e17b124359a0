package mesh

// BuildColoringAllPoints is the oracle the corner-node coloring is
// tested against: the same greedy first-fit order over the conflict
// graph of all NGLL3 points of every element.
func BuildColoringAllPoints(l *Local) *Coloring {
	c := &Coloring{}
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		c.ColorOf[kind], c.NumColors[kind] = colorRegionAllPoints(reg)
	}
	return c
}

func colorRegionAllPoints(reg *Region) ([]int32, int) {
	// CSR point -> incident elements.
	start := make([]int32, reg.NGlob+1)
	for _, g := range reg.Ibool {
		start[g+1]++
	}
	for i := 0; i < reg.NGlob; i++ {
		start[i+1] += start[i]
	}
	pos := append([]int32(nil), start[:reg.NGlob]...)
	inc := make([]int32, len(reg.Ibool))
	for e := 0; e < reg.NSpec; e++ {
		for _, g := range reg.Ibool[e*NGLL3 : (e+1)*NGLL3] {
			inc[pos[g]] = int32(e)
			pos[g]++
		}
	}

	colorOf := make([]int32, reg.NSpec)
	for i := range colorOf {
		colorOf[i] = -1
	}
	numColors := 0
	var used []bool // scratch, indexed by color
	for e := 0; e < reg.NSpec; e++ {
		for i := 0; i < numColors; i++ {
			used[i] = false
		}
		for _, g := range reg.Ibool[e*NGLL3 : (e+1)*NGLL3] {
			for _, nb := range inc[start[g]:start[g+1]] {
				if cn := colorOf[nb]; cn >= 0 {
					used[cn] = true
				}
			}
		}
		picked := int32(-1)
		for cn := 0; cn < numColors; cn++ {
			if !used[cn] {
				picked = int32(cn)
				break
			}
		}
		if picked < 0 {
			picked = int32(numColors)
			numColors++
			used = append(used, false)
		}
		colorOf[e] = picked
	}
	return colorOf, numColors
}
