package hostprof_test

import (
	"fmt"
	"slices"

	"hostprof"
	"hostprof/internal/sniffer"
	statspkg "hostprof/internal/stats"
	"hostprof/internal/synth"
)

// Example_profiling trains hostname embeddings on observed request
// sequences and profiles a session consisting of a single unlabelled API
// hostname: the embedding transfers the travel label from the sites the
// API is co-requested with.
func Example_profiling() {
	corpus := [][]string{
		{"flights.example", "api.hotels.example", "hotels.example", "flights.example"},
		{"hotels.example", "api.hotels.example", "flights.example", "hotels.example"},
		{"kick.example", "goal.example", "score.example", "kick.example"},
		{"goal.example", "score.example", "kick.example", "goal.example"},
	}
	model, err := hostprof.Train(corpus, hostprof.TrainConfig{
		Dim: 16, MinCount: 1, Epochs: 40, Seed: 7, Subsample: -1,
	})
	if err != nil {
		panic(err)
	}

	tax := hostprof.NewTaxonomy()
	ont := hostprof.NewOntology(tax)
	travel, _ := tax.IDByName("Travel / Air Travel")
	v := tax.NewVector()
	v[travel] = 1
	ont.Add("flights.example", v)
	soccer, _ := tax.IDByName("Sports / Soccer")
	w := tax.NewVector()
	w[soccer] = 1
	ont.Add("score.example", w)

	profiler := hostprof.NewProfiler(model, ont, hostprof.ProfilerConfig{N: 3})
	profile, err := profiler.ProfileSession([]string{"api.hotels.example"})
	if err != nil {
		panic(err)
	}
	best := 0
	for id := range profile {
		if profile[id] > profile[best] {
			best = id
		}
	}
	fmt.Println(tax.Category(best).Name)
	// Output: Travel / Air Travel
}

// ExampleParseSNI shows the hostname leak a network observer exploits:
// the server name sits in cleartext at the front of every TLS connection.
func ExampleParseSNI() {
	rng := statspkg.NewRNG(1)
	stream := sniffer.BuildClientHello("secret-hobby.example", rng)
	host, err := hostprof.ParseSNI(stream)
	if err != nil {
		panic(err)
	}
	fmt.Println(host)
	// Output: secret-hobby.example
}

// ExampleParseQUICInitialSNI decrypts a QUIC v1 Initial the way an
// on-path observer can: the protection keys derive from the packet's own
// Destination Connection ID (RFC 9001), so "encrypted" Initials hide
// nothing from the network.
func ExampleParseQUICInitialSNI() {
	rng := statspkg.NewRNG(2)
	datagram, err := sniffer.BuildQUICInitial("video-site.example", rng)
	if err != nil {
		panic(err)
	}
	host, err := hostprof.ParseQUICInitialSNI(datagram)
	if err != nil {
		panic(err)
	}
	fmt.Println(host)
	// Output: video-site.example
}

// ExampleNewPipeline is the paper's observer end to end: a synthetic
// population's browsing is rendered to packet bytes (TLS ClientHellos,
// QUIC v1 Initials, DNS queries); the pipeline rebuilds per-user
// hostname sequences from the wire alone, trains embeddings on them and
// profiles every user. A profile counts as a match when its top topic is
// one of the topics the user browsed in the 20-minute session it
// describes — the ground truth the observer never sees.
func ExampleNewPipeline() {
	universe := synth.NewUniverse(synth.UniverseConfig{Sites: 120, Trackers: 20, Seed: 1})
	ontology := synth.BuildOntology(universe, synth.OntologyConfig{Coverage: 0.15, Seed: 2})
	population := synth.NewPopulation(universe, synth.PopulationConfig{Users: 10, Days: 3, Seed: 3})
	browsing := population.Browse()

	// 70% TLS, 20% QUIC, 10% DNS.
	wire := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelMixed, Seed: 4})
	capture, err := wire.SynthesizeTrace(browsing)
	if err != nil {
		panic(err)
	}
	fmt.Printf("wire: %d packets for %d hostname requests\n", capture.Len(), browsing.Len())

	pipe, err := hostprof.NewPipeline(hostprof.PipelineConfig{
		Ontology:  ontology,
		Blocklist: synth.BuildBlocklist(universe, 1, 5),
		Train:     hostprof.TrainConfig{Dim: 24, Epochs: 8, MinCount: 2, Seed: 6, Subsample: -1},
		Profile:   hostprof.ProfilerConfig{N: 80, Agg: hostprof.AggIDF},
	})
	if err != nil {
		panic(err)
	}
	for i, frame := range capture.Packets {
		pipe.Ingest(frame, capture.Times[i])
	}
	st := pipe.ObserverStats()
	fmt.Printf("observer: %d TLS + %d QUIC + %d DNS hostname leaks\n", st.TLSVisits, st.QUICVisits, st.DNSVisits)
	if err := pipe.Retrain(); err != nil {
		panic(err)
	}
	fmt.Printf("embedding: %d hostnames\n", pipe.Model().Vocab().Len())

	// Profile each user at their last visit.
	tax := ontology.Taxonomy()
	lastSeen := make(map[int]int64)
	for _, v := range pipe.Trace().Visits() {
		lastSeen[v.User] = v.Time
	}
	hits, profiled := 0, 0
	for _, user := range population.Users {
		now := lastSeen[user.ID]
		profile, err := pipe.ProfileUser(user.ID, now)
		if err != nil {
			continue
		}
		profiled++
		top := profile.TopLevel(tax)
		best := 0
		for i := range top {
			if top[i] > top[best] {
				best = i
			}
		}
		var browsed []int
		for _, host := range pipe.Trace().Session(user.ID, now, 20*60) {
			if h, ok := universe.HostByName(host); ok {
				if site := universe.SiteOfHost(h.ID); site != nil {
					browsed = append(browsed, site.Top)
				}
			}
		}
		if slices.Contains(browsed, best) {
			hits++
		}
	}
	fmt.Printf("top topic matches the browsed session for %d/%d users\n", hits, profiled)
	// Output:
	// wire: 16597 packets for 5154 hostname requests
	// observer: 3584 TLS + 1035 QUIC + 535 DNS hostname leaks
	// embedding: 290 hostnames
	// top topic matches the browsed session for 8/10 users
}

// ExampleModel_MostSimilar is the use the paper suggests in §6.2:
// illegal sport-streaming services hop to fresh hostnames to evade
// takedowns, but their audiences co-request them in the same sessions,
// so the embedding keeps every incarnation close. From the most popular
// Sports site, nearest-neighbour search surfaces other Sports properties
// with no ontology coverage and no payload inspection.
func ExampleModel_MostSimilar() {
	universe := synth.NewUniverse(synth.UniverseConfig{Sites: 200, Seed: 17})
	population := synth.NewPopulation(universe, synth.PopulationConfig{Users: 40, Days: 5, Seed: 19})
	model, err := hostprof.Train(population.Browse().AllSequences(), hostprof.TrainConfig{
		Dim: 32, Epochs: 10, MinCount: 2, Seed: 23, Subsample: -1,
	})
	if err != nil {
		panic(err)
	}

	sports := slices.Index(universe.Tax.TopNames(), "Sports")
	seed, bestPop := "", -1.0
	for _, site := range universe.Sites {
		name := universe.Hosts[site.Host].Name
		if _, ok := model.Vector(name); ok && site.Top == sports && universe.Popularity[site.ID] > bestPop {
			seed, bestPop = name, universe.Popularity[site.ID]
		}
	}
	neighbours, err := model.MostSimilar(seed, 12)
	if err != nil {
		panic(err)
	}
	hits := 0
	for _, nb := range neighbours {
		if h, ok := universe.HostByName(nb.Host); ok {
			if site := universe.SiteOfHost(h.ID); site != nil && site.Top == sports {
				hits++
			}
		}
	}
	fmt.Printf("seed: %s\n", seed)
	fmt.Printf("%d of %d nearest neighbours are Sports properties\n", hits, len(neighbours))
	// Output:
	// seed: metanet.net
	// 6 of 12 nearest neighbours are Sports properties
}
