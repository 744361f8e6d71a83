package relation

// Shard maps a key value to a shard index in [0, n). n below 2 always
// returns 0 (the single-shard degenerate case). The mix step is the
// splitmix64 finalizer, so adjacent int64 keys (the common case for
// dictionary-encoded values and synthetic workloads) spread uniformly
// instead of striding. The hash is fixed (not seeded per process), so the
// serving layer's assignment of queries to shards is stable across restarts.
func Shard(v int64, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
