package testnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// PinsFile is the pin table, relative to the module root: the exact work of
// fixed seeded workloads, grouped by the test that answers them. A test
// holds each of its cells to the table with zero tolerance, in both
// directions, and rewrites its group under -update.
const PinsFile = "testdata/pins.json"

// Pin is one cell of the pin table: an instance, the algorithm that answers
// it, and the work summed over its query sets.
type Pin struct {
	Name string `json:"name"`
	// The instance: the network generator (CA25 is CA at a quarter of its
	// nodes, NA60 is NA at 60%), its seed, |Q|, the attribute dimensions of
	// the skyline, and the number of seeded query sets summed.
	Net     string `json:"net"`
	Seed    int64  `json:"seed"`
	Q       int    `json:"q"`
	Attrs   int    `json:"attrs"`
	Queries int    `json:"queries"`
	// The algorithm and its non-default options.
	Alg     string `json:"alg"`
	Options string `json:"options,omitempty"`
	// The work and the answer size (neighbours, for aggregate NN).
	Nodes      int   `json:"nodes"`
	Pages      int64 `json:"pages"`
	Candidates int   `json:"candidates"`
	Distances  int   `json:"distances"`
	Scans      int   `json:"scans,omitempty"`
	Skyline    int   `json:"skyline"`
	// HitRate is the distance-cache hit rate, where the cache is on.
	HitRate float64 `json:"hit_rate,omitempty"`
	// Hash is FNV-1a over each answer's object id and the Float64bits of
	// its vector entries, in report order, where the test hashes answers.
	Hash string `json:"hash,omitempty"`
}

// Diff lists the fields where p and q differ, as "field p→q", with the
// direction of the numeric ones.
func (p Pin) Diff(q Pin) []string {
	var out []string
	a, b := reflect.ValueOf(p), reflect.ValueOf(q)
	for i := range a.NumField() {
		x, y := a.Field(i), b.Field(i)
		if x.Equal(y) {
			continue
		}
		dir := ""
		if x.CanInt() || x.CanFloat() {
			dir = " (rose)"
			if x.CanInt() && y.Int() < x.Int() || x.CanFloat() && y.Float() < x.Float() {
				dir = " (fell)"
			}
		}
		out = append(out, fmt.Sprintf("%s %v→%v%s", a.Type().Field(i).Name, x, y, dir))
	}
	return out
}

// Pins is one test's group of the pin table.
type Pins struct {
	path   string
	update bool
	want   map[string]Pin
	got    map[string]Pin
}

// LoadPins reads t's group of the table at path (t.Name() is the group) and
// fails t for every cell of it that is not among names, the cells t defines.
// Under update, the cells t checks replace theirs in the file once t and its
// subtests have passed; cells not run keep their records, and cells t no
// longer defines are dropped.
func LoadPins(t *testing.T, path string, update bool, names []string) *Pins {
	t.Helper()
	table, err := readPins(path)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pins{path: path, update: update, want: map[string]Pin{}, got: map[string]Pin{}}
	for _, c := range table[t.Name()] {
		p.want[c.Name] = c
		if !slices.Contains(names, c.Name) && !update {
			t.Errorf("%s: %s/%s is not a cell of the test", path, t.Name(), c.Name)
		}
	}
	if update {
		t.Cleanup(func() { p.write(t, names) })
	}
	return p
}

// Check holds got to the table's cell of the same name, field for field.
// Call it from the cell's subtest.
func (p *Pins) Check(t *testing.T, got Pin) {
	t.Helper()
	if p.update {
		p.got[got.Name] = got
		return
	}
	want, ok := p.want[got.Name]
	if !ok {
		t.Fatalf("no cell %q in %s: run the test with -update", got.Name, p.path)
	}
	if got != want {
		t.Errorf("work changed: %v\n got  %+v\n want %+v", want.Diff(got), got, want)
	}
}

// write rewrites the test's group in the order of names and logs every value
// that moved.
func (p *Pins) write(t *testing.T, names []string) {
	if t.Failed() {
		t.Logf("%s not rewritten: the test failed", p.path)
		return
	}
	var cells []Pin
	for _, name := range names {
		old, had := p.want[name]
		c, ran := p.got[name]
		if !ran {
			c = old // skipped or filtered out: keep its record
		}
		if ran || had {
			for _, d := range old.Diff(c) {
				t.Logf("%s/%s: %s", t.Name(), name, d)
			}
			cells = append(cells, c)
		}
	}
	for name := range p.want {
		if !slices.Contains(names, name) {
			t.Logf("%s/%s: dropped", t.Name(), name)
		}
	}
	// Packages run -update in parallel processes: hold a lock file across
	// the read-modify-write so neither loses the other's group.
	lock := p.path + ".lock"
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			break
		}
		if !errors.Is(err, fs.ErrExist) || time.Now().After(deadline) {
			t.Fatalf("locking %s: %v (remove a stale lock file)", p.path, err)
		}
	}
	defer os.Remove(lock)
	table, err := readPins(p.path)
	if err != nil {
		t.Fatal(err)
	}
	table[t.Name()] = cells
	data, err := json.Marshal(table) // groups in name order, one cell a line
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.NewReplacer("[{", "[\n{", "},{", "},\n{", "}]", "}\n]").Replace(string(data)) + "\n")
	if err := os.WriteFile(p.path+".tmp", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(p.path+".tmp", p.path); err != nil {
		t.Fatal(err)
	}
}

// readPins reads the table at path; a missing file is an empty table.
func readPins(path string) (map[string][]Pin, error) {
	table := map[string][]Pin{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return table, nil
	} else if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&table); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return table, nil
}
