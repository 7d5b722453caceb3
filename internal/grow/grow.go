// Package grow is the growth rule for memory a run builds from empty
// and keeps (DESIGN.md §15.1 rule 4): a slice that has to reallocate at
// least doubles its capacity. append grows a large slice by about 1.25×,
// so a buffer built up from empty by append allocates about five times
// its final size on the way; doubling allocates at most twice it.
package grow

// Room returns s with room for n more elements. When that takes a new
// array, its capacity is at least twice cap(s).
func Room[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	t := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(t, s)
	return t
}

// Append appends v to s under the growth rule. It takes one element
// because a variadic form copies through memmove where append stores in
// place; several are appended with append(Room(s, len(vs)), vs...).
func Append[T any](s []T, v T) []T {
	return append(Room(s, 1), v)
}
