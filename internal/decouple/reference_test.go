package decouple

import "sort"

// References for the search's indexed and counted shortcuts: what the
// search computed before it read them from an index. Tests compare the
// production code against them.

// rescanAffinityPartition is affinityPartition on a dense affinity
// matrix counted from the column supports, with each seed's mass summed
// afresh over the unassigned rows, O(K·m²) per call.
func rescanAffinityPartition(v *searchView, K int) [][]int {
	m := v.m
	aff := make([][]int, m)
	for r := range aff {
		aff[r] = make([]int, m)
	}
	for j := 0; j < v.n; j++ {
		sup := v.cols.ColSpan(j)
		for a, r := range sup {
			for _, s := range sup[a+1:] {
				aff[r][s]++
				aff[s][r]++
			}
		}
	}
	mD := m / K
	assigned := make([]bool, m)
	groups := make([][]int, K)
	gain := make([]int, m)
	for g := 0; g < K; g++ {
		seed, bestMass := -1, -1
		for r := 0; r < m; r++ {
			if assigned[r] {
				continue
			}
			mass := 0
			for s := 0; s < m; s++ {
				if !assigned[s] {
					mass += aff[r][s]
				}
			}
			if mass > bestMass {
				seed, bestMass = r, mass
			}
		}
		groups[g] = []int{seed}
		assigned[seed] = true
		copy(gain, aff[seed])
		for len(groups[g]) < mD {
			next, bestGain := -1, -1
			for s := 0; s < m; s++ {
				if !assigned[s] && gain[s] > bestGain {
					next, bestGain = s, gain[s]
				}
			}
			groups[g] = append(groups[g], next)
			assigned[next] = true
			for s := 0; s < m; s++ {
				gain[s] += aff[next][s]
			}
		}
		sort.Ints(groups[g])
	}
	return groups
}
