package stats

import (
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Every counter has a unique name in the pkg.noun_verb scheme: a missing
// or duplicate entry would drop a statistic from reports or merge two.
func TestNamesTable(t *testing.T) {
	scheme := regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$`)
	seen := make(map[string]Counter)
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("counter %d has no name", c)
			continue
		}
		if !scheme.MatchString(name) {
			t.Errorf("counter %d name %q does not match the pkg.noun_verb scheme", c, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
}

func TestMachineAggregates(t *testing.T) {
	m := NewMachine(4)
	m.Inc(1, CCacheHits)
	m.Add(2, CCacheHits, 3)
	if m.Total(CCacheHits) != 4 {
		t.Fatalf("total = %d, want 4", m.Total(CCacheHits))
	}
	if m.Node[1][CCacheHits] != 1 || m.Node[2][CCacheHits] != 3 || m.Node[0][CCacheHits] != 0 {
		t.Fatal("per-node counts wrong")
	}
	if m.Total(CCacheMisses) != 0 {
		t.Fatal("untouched counter is non-zero")
	}
}

// String lists the non-zero totals sorted by name, one per line.
func TestStringSortedNonZero(t *testing.T) {
	m := NewMachine(2)
	m.Add(0, CRelAcks, 7)
	m.Inc(1, CCacheMisses)
	m.Add(1, CProtoMsgs, 2)
	m.Add(0, CNetFlits, 0)
	want := "cache.misses                            1\n" +
		"proto.messages                          2\n" +
		"rel.acks                                7\n"
	if got := m.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}

	for c := Counter(0); c < NumCounters; c++ {
		m.Inc(int(c)%2, c)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(m.String(), "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if len(names) != int(NumCounters) || !sort.StringsAreSorted(names) {
		t.Fatalf("String() lists %d counters, sorted=%v: %v", len(names), sort.StringsAreSorted(names), names)
	}
}

// Property: the machine-wide total always equals the sum of per-node counters.
func TestPropertyGlobalIsSum(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMachine(4)
		for _, op := range ops {
			m.Add(int(op)%4, CNetFlits, int64(op%7))
		}
		var sum int64
		for _, n := range m.Node {
			sum += n[CNetFlits]
		}
		return m.Total(CNetFlits) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
