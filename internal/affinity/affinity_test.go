package affinity

import "testing"

func TestSMTPairedLayout(t *testing.T) {
	// Intel style (Fig. 2A): each core hosts one compute and one data
	// thread on its two hyperthreads.
	l, err := NewLayout(SMTPaired, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workers) != 8 {
		t.Fatalf("workers = %d, want 8", len(l.Workers))
	}
	perCore := map[int][]Role{}
	for _, w := range l.Workers {
		perCore[w.Core] = append(perCore[w.Core], w.Role)
	}
	if len(perCore) != 4 {
		t.Fatalf("cores used = %d, want 4", len(perCore))
	}
	for core, roles := range perCore {
		if len(roles) != 2 || roles[0] == roles[1] {
			t.Fatalf("core %d roles = %v, want one of each", core, roles)
		}
	}
}

func TestSMTRequiresEqualCounts(t *testing.T) {
	if _, err := NewLayout(SMTPaired, 3, 4, 1); err == nil {
		t.Fatal("SMT pairing accepted pc != pd")
	}
}

func TestCorePairedLayout(t *testing.T) {
	// AMD style (Fig. 2B): threads on separate cores, L2-sharing
	// neighbours get one of each role.
	l, err := NewLayout(CorePaired, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workers) != 8 {
		t.Fatalf("workers = %d, want 8", len(l.Workers))
	}
	cores := map[int]bool{}
	for _, w := range l.Workers {
		if cores[w.Core] {
			t.Fatalf("core %d assigned twice", w.Core)
		}
		cores[w.Core] = true
	}
	// Every L2 pair (cores 2g, 2g+1) holds one compute and one data.
	byGroup := map[int][]Role{}
	for _, w := range l.Workers {
		byGroup[w.Core/2] = append(byGroup[w.Core/2], w.Role)
	}
	for g, roles := range byGroup {
		if len(roles) != 2 || roles[0] == roles[1] {
			t.Fatalf("L2 group %d roles = %v, want one of each", g, roles)
		}
	}
}

func TestMultiSocketLayout(t *testing.T) {
	l, err := NewLayout(SMTPaired, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workers) != 8 {
		t.Fatalf("workers = %d, want 8", len(l.Workers))
	}
	bySocket := map[int]int{}
	for _, w := range l.Workers {
		bySocket[w.Socket]++
	}
	if bySocket[0] != 4 || bySocket[1] != 4 {
		t.Fatalf("socket split = %v, want 4/4", bySocket)
	}
}

func TestRoleSelectors(t *testing.T) {
	l, _ := NewLayout(SMTPaired, 3, 3, 1)
	cw := l.ComputeWorkers()
	dw := l.DataWorkers()
	if len(cw) != 3 || len(dw) != 3 {
		t.Fatalf("selectors = %d/%d, want 3/3", len(cw), len(dw))
	}
	for _, w := range cw {
		if w.Role != ComputeRole {
			t.Fatal("ComputeWorkers returned a data worker")
		}
	}
	for _, w := range dw {
		if w.Role != DataRole {
			t.Fatal("DataWorkers returned a compute worker")
		}
	}
}

func TestPairOf(t *testing.T) {
	l, _ := NewLayout(SMTPaired, 2, 2, 1)
	for _, w := range l.Workers {
		p, ok := l.PairOf(w)
		if !ok {
			t.Fatalf("worker %d has no pair", w.ID)
		}
		if p.Core != w.Core || p.Role == w.Role {
			t.Fatalf("worker %d paired wrongly with %d", w.ID, p.ID)
		}
	}
	lc, _ := NewLayout(CorePaired, 2, 2, 1)
	for _, w := range lc.Workers {
		p, ok := lc.PairOf(w)
		if !ok {
			t.Fatalf("core-paired worker %d has no pair", w.ID)
		}
		if p.Core/2 != w.Core/2 || p.Role == w.Role {
			t.Fatalf("core-paired worker %d paired wrongly", w.ID)
		}
	}
}

func TestValidation(t *testing.T) {
	for _, c := range []struct{ pc, pd, sk int }{
		{0, 1, 1}, {1, 0, 1}, {1, 1, 0},
	} {
		if _, err := NewLayout(SMTPaired, c.pc, c.pd, c.sk); err == nil {
			t.Errorf("accepted pc=%d pd=%d sk=%d", c.pc, c.pd, c.sk)
		}
	}
	if _, err := NewLayout(PairingStyle(42), 1, 1, 1); err == nil {
		t.Error("accepted unknown pairing style")
	}
}

func TestStrings(t *testing.T) {
	if ComputeRole.String() != "compute" || DataRole.String() != "data" {
		t.Fatal("role names wrong")
	}
	if SMTPaired.String() != "smt-paired" || CorePaired.String() != "core-paired" {
		t.Fatal("style names wrong")
	}
}
