package workload

import "ulmt/internal/mem"

// parser models SpecInt2000 197.parser: the link-grammar word
// processor. The kernel streams a text whose sentences are drawn from
// a fixed pool of templates (real text repeats its vocabulary and
// constructions); each word triggers a dictionary hash lookup with a
// dependent chain walk, then accesses the word's connector records
// for linkage checking. The miss stream is irregular and
// chain-driven but repeats whenever the same sentence shape reappears
// — pair-predictable, sequentially hopeless.
type parser struct{}

func init() { register(parser{}) }

func (parser) Name() string { return "Parser" }

func (parser) Description() string {
	return "link-grammar dictionary: hash chains + connector records over cyclic text"
}

type parserSize struct {
	vocab     int
	sentences int // templates in the pool
	words     int // words of text processed
}

func (parser) size(s Scale) parserSize {
	switch s {
	case ScaleTiny:
		return parserSize{vocab: 8 << 10, sentences: 64, words: 20 << 10}
	case ScaleSmall:
		return parserSize{vocab: 16 << 10, sentences: 320, words: 96 << 10}
	case ScaleLarge:
		return parserSize{vocab: 48 << 10, sentences: 768, words: 500 << 10}
	default:
		return parserSize{vocab: 32 << 10, sentences: 512, words: 280 << 10}
	}
}

const (
	parserDictNodeBytes = 64 // hash link, word string, definition pointer
	parserConnBytes     = 64 // connector set of one dictionary entry
)

func (w parser) Generate(s Scale) []Op { return generate(s, w.build) }

func (w parser) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0x9A25E2)

	vocab := sz.vocab
	nbuckets := vocab / 2

	buckets := b.Alloc(nbuckets * 8)
	dictPool := b.Alloc(vocab * 2 * parserDictNodeBytes)
	conns := b.Alloc(vocab * parserConnBytes)

	bucketAt := func(i int) mem.Addr { return buckets + mem.Addr(i*8) }
	// dictNode scatters chain nodes through the pool.
	dictNode := func(word, depth int) mem.Addr {
		idx := mix(uint64(word)<<8|uint64(depth)) % uint64(vocab*2)
		return dictPool + mem.Addr(int(idx)*parserDictNodeBytes)
	}
	connAt := func(word int) mem.Addr { return conns + mem.Addr(word*parserConnBytes) }

	// Sentence templates: 6-14 words each, three quarters drawn from
	// a Zipf-like hot vocabulary and one quarter uniformly (rare
	// words). A sentence's lookup sequence is fully determined by
	// its words, so recurring sentences produce recurring miss
	// sequences, while the rare-word tail keeps the dictionary
	// footprint well beyond the L2.
	templates := make([][]int, sz.sentences)
	for i := range templates {
		n := 6 + r.intn(9)
		t := make([]int, n)
		for j := range t {
			if j%4 == 3 {
				t[j] = r.intn(vocab)
			} else {
				t[j] = zipf(r, vocab)
			}
		}
		templates[i] = t
	}

	processed := 0
	for processed < sz.words {
		t := templates[r.intn(len(templates))]
		for _, word := range t {
			// Dictionary lookup: bucket head, then chain walk.
			h := int(mix(uint64(word)*2654435761) % uint64(nbuckets))
			b.Load(bucketAt(h))
			depth := 2 + word%3
			for k := 0; k < depth; k++ {
				b.LoadDep(dictNode(word, k))
				b.Work(6) // string compare
			}
			// Connector records of the matched entry, then the
			// frequency-count update the real parser performs on the
			// matched dictionary node.
			b.LoadDep(connAt(word))
			b.Work(8)
			b.Store(dictNode(word, 0))
			processed++
		}
		// Linkage pass over the sentence: revisit each word's
		// connectors pairwise-adjacent, as the parser tries links.
		for j := 1; j < len(t); j++ {
			b.Load(connAt(t[j-1]))
			b.Load(connAt(t[j]))
			b.Work(12)
		}
	}
}

// zipf draws a Zipf-ish distributed value in [0, n): rank r with
// probability proportional to 1/(r+1), approximated by squaring a
// uniform draw — cheap, deterministic, and skewed enough to create a
// hot vocabulary with a long cold tail.
func zipf(r *rng, n int) int {
	u := float64(r.next()%(1<<20)) / (1 << 20)
	v := int(u * u * float64(n))
	if v >= n {
		v = n - 1
	}
	return v
}
