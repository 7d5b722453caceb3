//go:build !linux && !darwin

package lifestore

// OpenMapped falls back to a plain descriptor-backed Open on platforms
// without the unix mmap path. The query surface is identical; only the
// read mechanism differs.
func OpenMapped(path string) (*Store, error) { return Open(path) }
