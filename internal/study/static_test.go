package study

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// lazyStatic names the fields of a static world's objects that are filled on
// first use, once, for every world that shares them: a clip's laid scenes and
// DESCRIBE body, and the names table a resume's decoder shares.
var lazyStatic = map[string]bool{
	"Clip.scenes": true, "Clip.scenesOnce": true,
	"Clip.desc": true, "Clip.descOnce": true,
	"Static.strs": true, "Static.strsOnce": true,
}

// staticHash hashes everything s holds — following pointers, slices and maps
// (in key order) — but the lazily filled fields.
func staticHash(s *Static) uint64 {
	h := fnv.New64a()
	seen := map[visit]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				fmt.Fprint(h, "nil|")
				return
			}
			k := visit{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !lazyStatic[v.Type().Name()+"."+v.Type().Field(i).Name] {
					walk(v.Field(i))
				}
			}
		case reflect.Slice, reflect.Array:
			fmt.Fprint(h, v.Len(), "[")
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			keys := v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
			fmt.Fprint(h, len(keys), "{")
			for _, k := range keys {
				walk(k)
				walk(v.MapIndex(k))
			}
		default:
			fmt.Fprint(h, v, "|")
		}
	}
	walk(reflect.ValueOf(s))
	return h.Sum64()
}

// TestStaticWorldIsReadOnly builds a static world, runs a world instantiated
// from it to completion — checkpointed midway, with an exact resume and a
// named fork of that checkpoint run to completion on the same static world —
// and wants the static world's hash unchanged: nothing a world does writes
// what it shares. The open-loop arm re-homes clips to every mirror under
// outage weather.
func TestStaticWorldIsReadOnly(t *testing.T) {
	for _, opt := range []Options{
		{Seed: 5, MaxUsers: 6, ClipCap: 2},
		{Seed: 5, MaxUsers: 8, ClipCap: 2, Workload: "poisson", Arrivals: 24, Selection: "roundrobin", Dynamics: "outage"},
	} {
		st, err := NewStatic(opt)
		if err != nil {
			t.Fatal(err)
		}
		before := staticHash(st)
		w, err := st.NewWorld()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		snap := checkpoint(t, w)
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		for _, fork := range []*Fork{nil, {Name: "other"}} {
			fw, err := st.Resume(bytes.NewReader(snap), fork)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if after := staticHash(st); after != before {
			t.Errorf("options %+v: the static world hashes %x after its worlds ran, %x before", opt, after, before)
		}
	}
}

// TestStaticResumeRefusesOtherOptions resumes a snapshot on a static world
// built from other options: refused by name, before anything is built.
func TestStaticResumeRefusesOtherOptions(t *testing.T) {
	opt := Options{Seed: 5, MaxUsers: 6, ClipCap: 2}
	snap := checkpoint(t, worldAt(t, opt, 5*time.Minute))
	opt.Seed++
	st, err := NewStatic(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resume(bytes.NewReader(snap), nil); err == nil || !strings.Contains(err.Error(), "not of the static world's") {
		t.Fatalf("resume on another seed's static world: err = %v", err)
	}
}
