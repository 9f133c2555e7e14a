package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc/stat; Linux fixes it at 100
// on every architecture Go supports.
const clockTicks = 100

// readSteal returns the hypervisor steal time of all CPUs since boot, in
// seconds, from the aggregate "cpu" line of /proc/stat. It returns 0
// where the file is missing.
func readSteal() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	steal, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return steal / clockTicks
}

// readLoadavg returns the one-minute load average, or 0 where
// /proc/loadavg is missing.
func readLoadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
