package workloads

import (
	"fmt"
	"math/rand"
	"slices"

	"schism/internal/datum"
	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/zipf"
)

// EpinionsConfig parameterises the social-network workload (App. D.4).
// The real Epinions.com crawl is not redistributable; the generator plants
// community structure instead: users and items belong to hidden
// communities, and reviews/trust edges stay inside the community with
// probability IntraProb. The structure is invisible at the schema level
// (community membership is random in id space), which is exactly the
// property that defeats range partitioning and makes Schism's lookup
// tables win (§6.1).
type EpinionsConfig struct {
	Users       int
	Items       int
	Communities int
	// ReviewsPerUser and TrustPerUser set graph density.
	ReviewsPerUser int
	TrustPerUser   int
	// IntraProb is the probability an edge stays inside the community.
	IntraProb float64
	Txns      int
	Seed      int64
}

func (c EpinionsConfig) withDefaults() EpinionsConfig {
	if c.Users <= 0 {
		c.Users = 2000
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.Communities <= 0 {
		c.Communities = 8
	}
	if c.ReviewsPerUser <= 0 {
		c.ReviewsPerUser = 8
	}
	if c.TrustPerUser <= 0 {
		c.TrustPerUser = 6
	}
	if c.IntraProb <= 0 {
		c.IntraProb = 0.9
	}
	if c.Txns <= 0 {
		c.Txns = 10000
	}
	return c
}

// epinionsGraph is the generated social graph plus adjacency indexes used
// to produce realistic query access sets.
type epinionsGraph struct {
	cfg      EpinionsConfig
	userComm []int
	itemComm []int
	// commUsers[c] / commItems[c] list members of community c.
	commUsers [][]int64
	commItems [][]int64
	// reviews: id -> (user, item); adjacency by item and user.
	reviewUser, reviewItem []int64
	byItem, byUser         map[int64][]int64 // item/user -> review ids
	// trust: id -> (source, target); adjacency by source.
	trustSrc, trustDst []int64
	bySource           map[int64][]int64
}

func generateEpinions(cfg EpinionsConfig, rng *rand.Rand) *epinionsGraph {
	g := &epinionsGraph{
		cfg:       cfg,
		userComm:  make([]int, cfg.Users),
		itemComm:  make([]int, cfg.Items),
		commUsers: make([][]int64, cfg.Communities),
		commItems: make([][]int64, cfg.Communities),
		byItem:    make(map[int64][]int64),
		byUser:    make(map[int64][]int64),
		bySource:  make(map[int64][]int64),
	}
	for u := 0; u < cfg.Users; u++ {
		c := rng.Intn(cfg.Communities)
		g.userComm[u] = c
		g.commUsers[c] = append(g.commUsers[c], int64(u))
	}
	for i := 0; i < cfg.Items; i++ {
		c := rng.Intn(cfg.Communities)
		g.itemComm[i] = c
		g.commItems[c] = append(g.commItems[c], int64(i))
	}
	// Guard against empty communities at tiny scales.
	for c := 0; c < cfg.Communities; c++ {
		if len(g.commUsers[c]) == 0 {
			g.commUsers[c] = []int64{int64(c % cfg.Users)}
		}
		if len(g.commItems[c]) == 0 {
			g.commItems[c] = []int64{int64(c % cfg.Items)}
		}
	}
	pickItem := func(u int64) int64 {
		if rng.Float64() < cfg.IntraProb {
			items := g.commItems[g.userComm[u]]
			return items[rng.Intn(len(items))]
		}
		return int64(rng.Intn(cfg.Items))
	}
	pickUser := func(u int64) int64 {
		if rng.Float64() < cfg.IntraProb {
			users := g.commUsers[g.userComm[u]]
			return users[rng.Intn(len(users))]
		}
		return int64(rng.Intn(cfg.Users))
	}
	for u := int64(0); u < int64(cfg.Users); u++ {
		for r := 0; r < cfg.ReviewsPerUser; r++ {
			i := pickItem(u)
			id := int64(len(g.reviewUser))
			g.reviewUser = append(g.reviewUser, u)
			g.reviewItem = append(g.reviewItem, i)
			g.byItem[i] = append(g.byItem[i], id)
			g.byUser[u] = append(g.byUser[u], id)
		}
		for t := 0; t < cfg.TrustPerUser; t++ {
			v := pickUser(u)
			if v == u {
				continue
			}
			id := int64(len(g.trustSrc))
			g.trustSrc = append(g.trustSrc, u)
			g.trustDst = append(g.trustDst, v)
			g.bySource[u] = append(g.bySource[u], id)
		}
	}
	return g
}

func epinionsDB(g *epinionsGraph) *storage.Database {
	db := storage.NewDatabase()
	users := db.MustCreateTable(&storage.TableSchema{
		Name: "users",
		Columns: []storage.Column{
			{Name: "u_id", Type: storage.IntCol},
			{Name: "u_name", Type: storage.StringCol},
			{Name: "u_rep", Type: storage.IntCol},
		},
		Key: "u_id",
	})
	items := db.MustCreateTable(&storage.TableSchema{
		Name: "items",
		Columns: []storage.Column{
			{Name: "i_id", Type: storage.IntCol},
			{Name: "i_title", Type: storage.StringCol},
		},
		Key: "i_id",
	})
	reviews := db.MustCreateTable(&storage.TableSchema{
		Name: "reviews",
		Columns: []storage.Column{
			{Name: "r_id", Type: storage.IntCol},
			{Name: "r_u_id", Type: storage.IntCol},
			{Name: "r_i_id", Type: storage.IntCol},
			{Name: "r_rating", Type: storage.IntCol},
		},
		Key:     "r_id",
		Indexes: []string{"r_u_id", "r_i_id"},
	})
	trust := db.MustCreateTable(&storage.TableSchema{
		Name: "trust",
		Columns: []storage.Column{
			{Name: "t_id", Type: storage.IntCol},
			{Name: "t_source", Type: storage.IntCol},
			{Name: "t_target", Type: storage.IntCol},
			{Name: "t_value", Type: storage.IntCol},
		},
		Key:     "t_id",
		Indexes: []string{"t_source"},
	})
	for u := 0; u < g.cfg.Users; u++ {
		must(users.Insert(storage.Row{datum.NewInt(int64(u)), datum.NewString(fmt.Sprintf("user-%d", u)), datum.NewInt(0)}))
	}
	for i := 0; i < g.cfg.Items; i++ {
		must(items.Insert(storage.Row{datum.NewInt(int64(i)), datum.NewString(fmt.Sprintf("item-%d", i))}))
	}
	for id := range g.reviewUser {
		must(reviews.Insert(storage.Row{
			datum.NewInt(int64(id)), datum.NewInt(g.reviewUser[id]), datum.NewInt(g.reviewItem[id]), datum.NewInt(int64(1 + id%5)),
		}))
	}
	for id := range g.trustSrc {
		must(trust.Insert(storage.Row{
			datum.NewInt(int64(id)), datum.NewInt(g.trustSrc[id]), datum.NewInt(g.trustDst[id]), datum.NewInt(1),
		}))
	}
	return db
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Epinions builds the social-network workload: the nine queries Q1–Q9 of
// App. D.4 over the planted-community graph. The mix is read-mostly
// (writes ~9%), weighted toward Q1 and Q4 as in the paper.
func Epinions(cfg EpinionsConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := generateEpinions(cfg, rng)
	db := epinionsDB(g)
	tr := workload.NewTrace()

	user := func(id int64, w bool) workload.Access { return tup("users", id, w) }
	item := func(id int64, w bool) workload.Access { return tup("items", id, w) }
	review := func(id int64, w bool) workload.Access { return tup("reviews", id, w) }
	trustA := func(id int64, w bool) workload.Access { return tup("trust", id, w) }

	// Social traffic is heavily skewed: a few users and items receive most
	// of the activity (this is also what lets a sampled trace cover the
	// tuples the test set touches, as in the paper's 15%-coverage run).
	userZipf := zipf.New(rng, uint64(cfg.Users), 0.9)
	itemZipf := zipf.New(rng, uint64(cfg.Items), 0.9)
	randUser := func() int64 { return int64(userZipf.Next()) }
	randItem := func() int64 { return int64(itemZipf.Next()) }
	// Most traffic targets an item in the acting user's community, as real
	// browsing does; popularity within the community is Zipfian too.
	itemFor := func(u int64) int64 {
		if rng.Float64() < cfg.IntraProb {
			items := g.commItems[g.userComm[u]]
			return items[int(itemZipf.Next())%len(items)]
		}
		return randItem()
	}

	// A transaction's accesses and Q1's trusted set are built in scratch
	// reused across the trace; the trace keeps an exact-size copy.
	var (
		text    txnText
		scratch []workload.Access
		trusted = map[int64]bool{}
	)
	for n := 0; n < cfg.Txns; n++ {
		u := randUser()
		acc := scratch[:0]
		switch p := rng.Intn(100); {
		case p < 30: // Q1: ratings of item i from users trusted by u
			i := itemFor(u)
			acc = append(acc, user(u, false), item(i, false))
			clear(trusted)
			for _, tid := range g.bySource[u] {
				acc = append(acc, trustA(tid, false))
				trusted[g.trustDst[tid]] = true
			}
			for _, rid := range g.byItem[i] {
				if trusted[g.reviewUser[rid]] {
					acc = append(acc, review(rid, false))
				}
			}
			text.add("SELECT * FROM reviews JOIN trust ON reviews.r_u_id = trust.t_target WHERE trust.t_source = %d AND reviews.r_i_id = %d", u, i)
		case p < 45: // Q2: users trusted by u
			acc = append(acc, user(u, false))
			for _, tid := range g.bySource[u] {
				acc = append(acc, trustA(tid, false), user(g.trustDst[tid], false))
			}
			text.add("SELECT * FROM users JOIN trust ON users.u_id = trust.t_target WHERE trust.t_source = %d", u)
		case p < 57: // Q3: weighted average rating of item
			i := itemFor(u)
			acc = append(acc, item(i, false))
			for _, rid := range g.byItem[i] {
				acc = append(acc, review(rid, false))
			}
			text.add("SELECT * FROM reviews WHERE r_i_id = %d", i)
		case p < 82: // Q4: 10 most popular reviews of item
			i := itemFor(u)
			acc = append(acc, item(i, false))
			rids := g.byItem[i]
			if len(rids) > 10 {
				rids = rids[:10]
			}
			for _, rid := range rids {
				acc = append(acc, review(rid, false))
			}
			text.add("SELECT * FROM reviews WHERE r_i_id = %d ORDER BY r_rating DESC LIMIT 10", i)
		case p < 85: // Q5: 10 most popular reviews of user
			acc = append(acc, user(u, false))
			rids := g.byUser[u]
			if len(rids) > 10 {
				rids = rids[:10]
			}
			for _, rid := range rids {
				acc = append(acc, review(rid, false))
			}
			text.add("SELECT * FROM reviews WHERE r_u_id = %d ORDER BY r_rating DESC LIMIT 10", u)
		case p < 87: // Q6: update user profile
			acc = append(acc, user(u, true))
			text.add("UPDATE users SET u_rep = u_rep + 1 WHERE u_id = %d", u)
		case p < 90: // Q7: update item metadata
			i := itemFor(u)
			acc = append(acc, item(i, true))
			text.add("UPDATE items SET i_title = 'x' WHERE i_id = %d", i)
		case p < 97: // Q8: insert/update a review
			rids := g.byUser[u]
			if len(rids) == 0 {
				continue
			}
			rid := rids[rng.Intn(len(rids))]
			acc = append(acc, review(rid, true), item(g.reviewItem[rid], false))
			text.add("UPDATE reviews SET r_rating = %d WHERE r_id = %d", int64(1+rng.Intn(5)), rid)
		default: // Q9: update trust relation
			tids := g.bySource[u]
			if len(tids) == 0 {
				continue
			}
			tid := tids[rng.Intn(len(tids))]
			acc = append(acc, trustA(tid, true), user(u, false))
			text.add("UPDATE trust SET t_value = %d WHERE t_id = %d", int64(rng.Intn(2)), tid)
		}
		scratch = acc
		if len(acc) > 0 {
			tr.Add(slices.Clone(acc), text.take()...)
		}
	}
	return &Workload{
		Name:       "EPINIONS",
		DB:         db,
		Trace:      tr,
		KeyColumns: map[string]string{"users": "u_id", "items": "i_id", "reviews": "r_id", "trust": "t_id"},
		Manual:     func(k int) partition.Strategy { return epinionsManual(g, k) },
	}
}

// epinionsManual reproduces the MIT students' strategy (App. D.4):
// partition items and reviews by the same hash (on the item id), and
// replicate users and trust on every node.
func epinionsManual(g *epinionsGraph, k int) partition.Strategy {
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	// Reviews are co-located with their item via a lookup table derived
	// from the same hash function (hash of r_i_id, not of r_id).
	reviewLT := lookup.NewHashIndex()
	for rid, item := range g.reviewItem {
		reviewLT.Set(int64(rid), []int{int(datum.Hash(datum.NewInt(item)) % uint64(k))})
	}
	itemLT := lookup.NewHashIndex()
	for i := 0; i < g.cfg.Items; i++ {
		itemLT.Set(int64(i), []int{int(datum.Hash(datum.NewInt(int64(i))) % uint64(k))})
	}
	usersLT := lookup.NewHashIndex()
	trustLT := lookup.NewHashIndex()
	for u := 0; u < g.cfg.Users; u++ {
		usersLT.Set(int64(u), all)
	}
	for tid := range g.trustSrc {
		trustLT.Set(int64(tid), all)
	}
	return &partition.Lookup{
		K: k,
		Router: lookup.NewRouterFromTables(k, map[string]lookup.Table{
			"reviews": reviewLT, "items": itemLT, "users": usersLT, "trust": trustLT,
		}),
		Default:   all,
		KeyColumn: map[string]string{"users": "u_id", "items": "i_id", "reviews": "r_id", "trust": "t_id"},
	}
}
