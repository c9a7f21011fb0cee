package cache_test

// The policies as their sources write them, kept as the oracle the package's
// policies are held to: each replays a request stream on a cache of c blocks
// with nothing but slices and maps — no Level, no split of duties — and
// reports per request whether it hit, plus every block it evicted in order.

import (
	"slices"

	"repro/internal/grid"
)

// refFIFO evicts the block that came in first.
func refFIFO(reqs []grid.BlockID, c int) (hits []bool, victims []grid.BlockID) {
	var q []grid.BlockID // oldest first
	for _, x := range reqs {
		hit := slices.Contains(q, x)
		hits = append(hits, hit)
		if hit {
			continue
		}
		if len(q) == c {
			victims, q = append(victims, q[0]), q[1:]
		}
		q = append(q, x)
	}
	return hits, victims
}

// refLRU evicts the block used longest ago.
func refLRU(reqs []grid.BlockID, c int) (hits []bool, victims []grid.BlockID) {
	var q []grid.BlockID // least recently used first
	for _, x := range reqs {
		i := slices.Index(q, x)
		hits = append(hits, i >= 0)
		if i >= 0 {
			q = slices.Delete(q, i, i+1)
		} else if len(q) == c {
			victims, q = append(victims, q[0]), q[1:]
		}
		q = append(q, x)
	}
	return hits, victims
}

// refOPT is Belady's MIN: on a miss in a full cache, evict the block whose
// next request is farthest away, one never requested again first. Ties
// among those are broken arbitrarily, so only its miss count is an oracle.
func refOPT(reqs []grid.BlockID, c int) (hits []bool, victims []grid.BlockID) {
	next := make([]int, len(reqs)) // position of the next request for reqs[i]
	seen := map[grid.BlockID]int{}
	for i := len(reqs) - 1; i >= 0; i-- {
		next[i] = len(reqs)
		if j, ok := seen[reqs[i]]; ok {
			next[i] = j
		}
		seen[reqs[i]] = i
	}
	resident := map[grid.BlockID]int{} // block → position of its next request
	for i, x := range reqs {
		_, hit := resident[x]
		hits = append(hits, hit)
		if !hit && len(resident) == c {
			far, farNext := grid.BlockID(0), -1
			for b, n := range resident {
				if n > farNext {
					far, farNext = b, n
				}
			}
			victims = append(victims, far)
			delete(resident, far)
		}
		resident[x] = next[i]
	}
	return hits, victims
}

// refARC is ARC as Fig. 4 of Megiddo & Modha, "ARC: A Self-Tuning, Low
// Overhead Replacement Cache" (FAST '03), writes it: one step per request,
// cases I–IV, with REPLACE evicting from T1 or T2 into the ghost lists.
func refARC(reqs []grid.BlockID, c int) (hits []bool, victims []grid.BlockID) {
	var t1, t2, b1, b2 []grid.BlockID // LRU first
	p := 0
	replace := func(inB2 bool) {
		if len(t1) > 0 && (len(t1) > p || inB2 && len(t1) == p) {
			victims, b1, t1 = append(victims, t1[0]), append(b1, t1[0]), t1[1:]
		} else {
			victims, b2, t2 = append(victims, t2[0]), append(b2, t2[0]), t2[1:]
		}
	}
	without := func(l []grid.BlockID, x grid.BlockID) []grid.BlockID {
		return slices.DeleteFunc(l, func(y grid.BlockID) bool { return y == x })
	}
	for _, x := range reqs {
		hit := slices.Contains(t1, x) || slices.Contains(t2, x)
		hits = append(hits, hit)
		switch {
		case hit: // case I
			t1, t2 = without(t1, x), append(without(t2, x), x)
		case slices.Contains(b1, x): // case II
			p = min(c, p+max(1, len(b2)/len(b1)))
			replace(false)
			b1, t2 = without(b1, x), append(t2, x)
		case slices.Contains(b2, x): // case III
			p = max(0, p-max(1, len(b1)/len(b2)))
			replace(true)
			b2, t2 = without(b2, x), append(t2, x)
		default: // case IV
			if len(t1)+len(b1) == c {
				if len(t1) < c {
					b1 = b1[1:]
					replace(false)
				} else {
					victims, t1 = append(victims, t1[0]), t1[1:]
				}
			} else if total := len(t1) + len(t2) + len(b1) + len(b2); total >= c {
				if total == 2*c {
					b2 = b2[1:]
				}
				replace(false)
			}
			t1 = append(t1, x)
		}
	}
	return hits, victims
}
