package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: below that the figure is one or two outliers, not a rank.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted
// values. ok is false when fewer than minBeyond samples lie beyond the
// rank, in which case the percentile must not be reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// median of vs; the mean of the middle pair for an even count. It does not
// reorder vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quietQuartile is the estimate an end-to-end timing metric reports from
// its round values: the quartile at the good end — the 25th percentile
// (nearest rank) of a lower-is-better metric, the 75th of a higher-is-better
// one. Interference from the shared host only ever makes a round slower, in
// bursts of a few seconds, so the rounds it missed say what the program
// costs; the median of the rounds moved with how many bursts a run caught
// (README.md, "Run-to-run spread"). It does not reorder vs.
func quietQuartile(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	rank := min(max(int(math.Ceil(0.25*float64(n))), 1), n)
	if better == higher {
		return s[n-rank]
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, and 0 when the base is 0 (a layer the workload never
// entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// flatStats is a /stats document flattened to its numeric leaves, keyed by
// dotted path. Arrays of objects are keyed by their "name" or "shard"
// member (pool tenants, per-shard rows) so rows line up across snapshots.
type flatStats map[string]float64

func parseStats(doc []byte) (flatStats, map[string]string, error) {
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		return nil, nil, fmt.Errorf("decoding /stats: %w", err)
	}
	nums, strs := flatStats{}, map[string]string{}
	flatten("", root, nums, strs)
	return nums, strs, nil
}

func flatten(prefix string, v any, nums flatStats, strs map[string]string) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch v := v.(type) {
	case float64:
		nums[prefix] = v
	case string:
		strs[prefix] = v
	case map[string]any:
		for k, c := range v {
			flatten(join(k), c, nums, strs)
		}
	case []any:
		for i, c := range v {
			key := strconv.Itoa(i)
			if m, ok := c.(map[string]any); ok {
				if name, ok := m["name"].(string); ok {
					key = name
				} else if sh, ok := m["shard"].(float64); ok {
					key = strconv.Itoa(int(sh))
				}
			}
			flatten(join(key), c, nums, strs)
		}
	}
}

// diff is after minus before, leaf by leaf. A leaf that only exists after
// (a planner decision first taken during the rounds) counts from zero.
func (before flatStats) diff(after flatStats) flatStats {
	d := make(flatStats, len(after))
	for k, a := range after {
		d[k] = a - before[k]
	}
	return d
}

// sumPrefix adds up every leaf below prefix whose last path element is
// leaf, and returns the largest addend too (per-shard latency rows).
func (s flatStats) sumPrefix(prefix, leaf string) (sum, largest float64) {
	for k, v := range s {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "."+leaf) {
			sum += v
			largest = max(largest, v)
		}
	}
	return sum, largest
}
