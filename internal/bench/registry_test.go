package bench

import (
	"strings"
	"testing"
)

func scratch(name string) Workload {
	return Workload{Name: name, Setup: func() (func(), error) { return func() {}, nil }}
}

func TestRegisterValidation(t *testing.T) {
	for _, bad := range []string{"", "nosuite", "Upper/case", "a/b/c ", "/leading", "trailing/"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", bad)
				}
			}()
			Register(scratch(bad))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil Setup did not panic")
			}
		}()
		Register(Workload{Name: "reg-test/nilsetup"})
	}()
}

func TestRegisterDuplicatePanics(t *testing.T) {
	name := "reg-test/dup"
	Register(scratch(name))
	defer Unregister(name)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(scratch(name))
}

func TestAllSortedAndMatch(t *testing.T) {
	names := []string{"reg-test/zz", "reg-test/aa", "reg-test/mm"}
	for _, n := range names {
		Register(scratch(n))
	}
	defer func() {
		for _, n := range names {
			Unregister(n)
		}
	}()

	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %q >= %q", all[i-1].Name, all[i].Name)
		}
	}

	got, err := Match(`^reg-test/`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("Match found %d, want 3", len(got))
	}
	if _, err := Match(`(`); err == nil || !strings.Contains(err.Error(), "bad filter") {
		t.Errorf("bad pattern error = %v", err)
	}
}

func TestMatchEmptyPatternIsAll(t *testing.T) {
	a, err := Match("")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(All()) {
		t.Errorf("empty pattern matched %d of %d", len(a), len(All()))
	}
}
