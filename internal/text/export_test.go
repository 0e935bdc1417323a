package text

// TermCacheSlots is the token cache's fixed size, for the bound tests.
const TermCacheSlots = termCacheSlots

// CachedTokens counts the cache's filled slots.
func (p *Pipeline) CachedTokens() int {
	n := 0
	for i := range p.cache {
		if p.cache[i].Load() != nil {
			n++
		}
	}
	return n
}
