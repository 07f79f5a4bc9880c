package server

// InvalidateAll drops every result-cache entry of db computed before epoch
// and raises the database's epoch floor: the whole-database invalidation
// the global baseline arm of BenchmarkWriteMixStorm applies after every
// acknowledged write.
func (s *Server) InvalidateAll(db string, epoch uint64) int { return s.cache.InvalidateAll(db, epoch) }
