package graph

// rankedVertex is a vertex with its greedy rank key.
type rankedVertex struct {
	key uint64
	v   int32
}

// sortRanked sorts a by key ascending, keeping the input order among equal
// keys: an LSD byte-wise radix sort whose scatter passes are stable, with
// passes skipped where every key shares the byte.
func sortRanked(a []rankedVertex) {
	var orv, andv uint64 = 0, ^uint64(0)
	for _, x := range a {
		orv |= x.key
		andv &= x.key
	}
	buf := make([]rankedVertex, len(a))
	src, dst := a, buf
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (orv>>shift)&0xff == (andv>>shift)&0xff {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, x := range src {
			counts[(x.key>>shift)&0xff]++
		}
		sum := 0
		for i := 0; i < 256; i++ {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, x := range src {
			b := (x.key >> shift) & 0xff
			dst[counts[b]] = x
			counts[b]++
		}
		src, dst = dst, src
	}
	if len(a) > 0 && &src[0] != &a[0] {
		copy(a, src)
	}
}
