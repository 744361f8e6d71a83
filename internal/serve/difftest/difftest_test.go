package difftest

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// shardCounts returns the shard matrix: TSENS_TEST_SHARDS (comma-separated)
// or the default 1,4 — shard=1 keeps covering the single-writer pipeline,
// 4 queries spread over independently draining shards.
func shardCounts(t *testing.T) []int {
	spec := os.Getenv("TSENS_TEST_SHARDS")
	if spec == "" {
		spec = "1,4"
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			t.Fatalf("TSENS_TEST_SHARDS: bad field %q", f)
		}
		out = append(out, n)
	}
	return out
}

// seed returns TSENS_DIFF_SEED when set (replaying a recorded failure), or
// a fresh time-derived seed. The seed is logged and embedded in every
// failure message.
func seed(t *testing.T) int64 {
	if spec := os.Getenv("TSENS_DIFF_SEED"); spec != "" {
		s, err := strconv.ParseInt(spec, 10, 64)
		if err != nil {
			t.Fatalf("TSENS_DIFF_SEED: %v", err)
		}
		return s
	}
	return time.Now().UnixNano()
}

func matrixName(shards int) string {
	return fmt.Sprintf("shards=%d", shards)
}

// matrix invokes fn for every shard count of the env-configurable axis.
func matrix(t *testing.T, s int64, fn func(t *testing.T, cfg Config)) {
	for _, shards := range shardCounts(t) {
		cfg := Config{Seed: s, Shards: shards}
		t.Run(matrixName(shards), func(t *testing.T) {
			fn(t, cfg)
		})
	}
}

func TestServeDifferentialRandomized(t *testing.T) {
	s := seed(t)
	t.Logf("script seed %d (replay with TSENS_DIFF_SEED=%d)", s, s)
	matrix(t, s, func(t *testing.T, cfg Config) { Run(t, cfg) })
}

// TestServeDifferentialPinned replays two fixed seeds so every CI run —
// even without the env matrix — covers a deterministic script at both
// shard extremes.
func TestServeDifferentialPinned(t *testing.T) {
	for _, c := range []Config{
		{Seed: 1, Shards: 1},
		{Seed: 2, Shards: 4},
	} {
		t.Run(fmt.Sprintf("seed=%d/%s", c.Seed, matrixName(c.Shards)), func(t *testing.T) {
			Run(t, c)
		})
	}
}

// TestServeCrashRecoveryMatrix is the crash-point matrix: the differential
// script against a durable server killed at seed-chosen WAL offsets
// mid-script (with a torn partial frame appended, simulating death
// mid-write), reopened from disk, and driven on — recovered counts, LS,
// epochs, and ledger totals must match the from-scratch solver and the
// uninterrupted model at every flush point.
func TestServeCrashRecoveryMatrix(t *testing.T) {
	s := seed(t)
	t.Logf("script seed %d (replay with TSENS_DIFF_SEED=%d)", s, s)
	matrix(t, s, func(t *testing.T, cfg Config) { RunCrash(t, cfg, t.TempDir(), 4) })
}

// TestServeCrashRecoveryPinned replays fixed crash scripts at both shard
// extremes so every CI run covers a deterministic kill/reopen sequence.
func TestServeCrashRecoveryPinned(t *testing.T) {
	for _, c := range []Config{
		{Seed: 3, Shards: 1},
		{Seed: 4, Shards: 4},
	} {
		t.Run(fmt.Sprintf("seed=%d/%s", c.Seed, matrixName(c.Shards)), func(t *testing.T) {
			RunCrash(t, c, t.TempDir(), 4)
		})
	}
}

// TestServeClusterFailoverMatrix is the replicated failure matrix: the
// differential script against a leader/follower pair with seeded leader
// kills (promoting the follower on a healthy link, refusing and restarting
// the old leader behind a partition), replication-link partitions, and an
// injected WAL fsync failure — the surviving leader and the follower must
// match the from-scratch solver and each other at every checkpoint.
func TestServeClusterFailoverMatrix(t *testing.T) {
	s := seed(t)
	t.Logf("script seed %d (replay with TSENS_DIFF_SEED=%d)", s, s)
	matrix(t, s, func(t *testing.T, cfg Config) { RunCluster(t, cfg) })
}

// TestServeClusterFailoverPinned replays fixed failover scripts at both
// shard extremes so every CI run covers a deterministic kill/promote/reset
// sequence.
func TestServeClusterFailoverPinned(t *testing.T) {
	for _, c := range []Config{
		{Seed: 5, Shards: 1},
		{Seed: 6, Shards: 4},
	} {
		t.Run(fmt.Sprintf("seed=%d/%s", c.Seed, matrixName(c.Shards)), func(t *testing.T) {
			RunCluster(t, c)
		})
	}
}
