package grow

import "testing"

// TestEveryReallocationDoubles: growing one element at a time from
// empty, every new capacity is at least twice the last, and the
// contents survive each move.
func TestEveryReallocationDoubles(t *testing.T) {
	var s []int
	moves := 0
	for i := 0; i < 100000; i++ {
		old := cap(s)
		s = Append(s, i)
		if c := cap(s); c != old {
			moves++
			if old > 0 && c < 2*old {
				t.Fatalf("capacity %d → %d", old, c)
			}
		}
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d", i, v)
		}
	}
	if moves > 18 {
		t.Errorf("%d reallocations for 100000 elements", moves)
	}
	if r := Room(s[:10], 5); cap(r) != cap(s) || len(r) != 10 {
		t.Errorf("Room with space left reallocated: len %d cap %d", len(r), cap(r))
	}
	if n := 3 * cap(s); cap(Room(s, n)) < len(s)+n {
		t.Errorf("Room(s, %d) has no room for %d more", n, n)
	}
}
