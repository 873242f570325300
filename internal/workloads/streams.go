package workloads

import (
	"fmt"
	"math/rand"
	"strconv"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/zipf"
)

// This file provides the streaming per-client transaction iterators the
// benchmark driver consumes (driver.StreamMaker); the cluster
// experiments, the examples and the repo benchmark draw their
// transactions from them. A stream draws EVERY random parameter when the
// transaction is generated and packages them into a driver.Op:
//
//   - retries re-execute the same logical transaction instead of
//     re-drawing a fresh one, so a fixed seed produces byte-identical
//     per-client operation sequences at any GOMAXPROCS and under any
//     contention interleaving (each Op carries a Sig describing the drawn
//     parameters, which the driver folds into per-client hashes);
//   - statements carry both the surrogate-key predicate (d_key, c_key,
//     s_key, ...) and the warehouse-attribute predicate (d_w_id, ...), so
//     the same stream is routable by every strategy under comparison:
//     lookup tables resolve the key equality, hash resolves the key,
//     range predicates resolve the warehouse column. That is what makes
//     an apples-to-apples strategy-comparison experiment possible.

// --- TPC-C ---

// tpccStream yields the runtime TPC-C mix with pre-drawn parameters.
type tpccStream struct {
	cfg     TPCCConfig
	k       tpccKeys
	rng     *rand.Rand
	client  int
	histSeq int64
	full    bool // five-transaction mix; false = NewOrder/Payment only
	sig     sigBuf
}

// histID returns a deterministic per-client history key: populate never
// creates history rows and each client owns a disjoint id space, so
// inserts cannot collide however clients interleave.
func (s *tpccStream) histID() int64 {
	s.histSeq++
	return int64(s.client+1)<<40 | s.histSeq
}

// TPCCStream returns the five-transaction TPC-C mix (NewOrder 45%,
// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%) as a
// deterministic per-client stream.
func TPCCStream(cfg TPCCConfig) driver.StreamMaker {
	return tpccStreamMaker(cfg, true)
}

// TPCCNewOrderPaymentStream restricts the mix to the two write-heavy
// transactions that dominate throughput and carry the paper's
// multi-warehouse distribution behaviour (1% remote stock per order line,
// 15% remote payments).
func TPCCNewOrderPaymentStream(cfg TPCCConfig) driver.StreamMaker {
	return tpccStreamMaker(cfg, false)
}

func tpccStreamMaker(cfg TPCCConfig, full bool) driver.StreamMaker {
	cfg = cfg.withDefaults()
	return func(client int, seed int64) driver.Stream {
		return &tpccStream{
			cfg:    cfg,
			k:      tpccKeys{cfg},
			rng:    rand.New(rand.NewSource(seed + int64(client)*7919)),
			client: client,
			full:   full,
		}
	}
}

// Next implements driver.Stream.
func (s *tpccStream) Next() driver.Op {
	if !s.full {
		if s.rng.Intn(100) < 51 {
			return s.newOrderOp()
		}
		return s.paymentOp()
	}
	switch p := s.rng.Intn(100); {
	case p < 45:
		return s.newOrderOp()
	case p < 88:
		return s.paymentOp()
	case p < 92:
		return s.orderStatusOp()
	case p < 96:
		return s.deliveryOp()
	default:
		return s.stockLevelOp()
	}
}

func (s *tpccStream) newOrderOp() driver.Op {
	cfg, k, rng := s.cfg, s.k, s.rng
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	c := 1 + rng.Intn(cfg.Customers)
	nItems := 5 + rng.Intn(11)
	items := make([]int, nItems)
	supply := make([]int, nItems)
	for l := range items {
		items[l] = rng.Intn(cfg.Items)
		supply[l] = w
		if rng.Intn(100) == 0 { // 1% remote supply per line
			supply[l] = remoteWarehouse(rng, w, cfg.Warehouses)
		}
	}
	sig := s.sig.text("no w").int(w).text(" d").int(d).text(" c").int(c).
		text(" i").ints(items).text(" s").ints(supply).String()
	run := func(t *cluster.Txn) error {
		dk := k.district(w, d)
		if _, err := t.ExecPrepared(selWarehouse, num(w)); err != nil {
			return err
		}
		if _, err := t.ExecPrepared(updDistrictNextByKey, num(dk), num(w)); err != nil {
			return err
		}
		rows, err := t.ExecPrepared(selDistrictNextByKey, num(dk), num(w))
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("tpcc: district %d not found", dk)
		}
		next, _ := rows[0][0].AsInt()
		o := int(next - 1)
		oKey := k.order(w, d, o)
		if _, err := t.ExecPrepared(selCustomerByKey, num(k.customer(w, d, c)), num(w)); err != nil {
			return err
		}
		if _, err := t.ExecPrepared(insOrder, num(oKey), num(w), num(d), num(o), num(c), num(nItems)); err != nil {
			return err
		}
		if _, err := t.ExecPrepared(insNewOrder, num(oKey), num(w), num(d), num(o)); err != nil {
			return err
		}
		for l := 0; l < nItems; l++ {
			item, sw := items[l], supply[l]
			if _, err := t.ExecPrepared(selItem, num(item)); err != nil {
				return err
			}
			if _, err := t.ExecPrepared(updStockByKey, num(k.stock(sw, item)), num(sw)); err != nil {
				return err
			}
			if _, err := t.ExecPrepared(insOrderLine,
				num(k.orderLine(oKey, l+1)), num(w), num(d), num(o), num(l+1), num(item), num(sw)); err != nil {
				return err
			}
		}
		return nil
	}
	return driver.Op{Sig: sig, Run: run}
}

func (s *tpccStream) paymentOp() driver.Op {
	cfg, k, rng := s.cfg, s.k, s.rng
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	c := 1 + rng.Intn(cfg.Customers)
	cw := w
	if rng.Intn(100) < 15 { // 15% remote customer
		cw = remoteWarehouse(rng, w, cfg.Warehouses)
	}
	h := s.histID()
	sig := s.sig.text("pay w").int(w).text(" d").int(d).text(" c").int(c).text(" cw").int(cw).String()
	run := func(t *cluster.Txn) error {
		if _, err := t.ExecPrepared(updWarehouse, num(w)); err != nil {
			return err
		}
		if _, err := t.ExecPrepared(updDistrictYtdByKey, num(k.district(w, d)), num(w)); err != nil {
			return err
		}
		if _, err := t.ExecPrepared(updCustomerPayByKey, num(k.customer(cw, d, c)), num(cw)); err != nil {
			return err
		}
		_, err := t.ExecPrepared(insHistory, num(h), num(w))
		return err
	}
	return driver.Op{Sig: sig, Run: run}
}

func (s *tpccStream) orderStatusOp() driver.Op {
	cfg, k, rng := s.cfg, s.k, s.rng
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	c := 1 + rng.Intn(cfg.Customers)
	sig := s.sig.text("os w").int(w).text(" d").int(d).text(" c").int(c).String()
	run := func(t *cluster.Txn) error {
		if _, err := t.ExecPrepared(selCustomerByKey, num(k.customer(w, d, c)), num(w)); err != nil {
			return err
		}
		dk := k.district(w, d)
		lo, hi := dk*tpccOrderSpace, (dk+1)*tpccOrderSpace-1
		rows, err := t.ExecPrepared(selLastOrder, num(w), num(lo), num(hi))
		if err != nil || len(rows) == 0 {
			return err
		}
		oKey, _ := rows[0][0].AsInt()
		_, err = t.ExecPrepared(selOrderLines, num(w), num(oKey*tpccLineSpace), num((oKey+1)*tpccLineSpace-1))
		return err
	}
	return driver.Op{Sig: sig, Run: run}
}

func (s *tpccStream) deliveryOp() driver.Op {
	cfg, k, rng := s.cfg, s.k, s.rng
	w := cfg.pickW(rng)
	sig := s.sig.text("dl w").int(w).String()
	run := func(t *cluster.Txn) error {
		for d := 1; d <= cfg.Districts; d++ {
			dk := k.district(w, d)
			lo, hi := dk*tpccOrderSpace, (dk+1)*tpccOrderSpace-1
			rows, err := t.ExecPrepared(selOldNewOrder, num(w), num(lo), num(hi))
			if err != nil {
				return err
			}
			if len(rows) == 0 {
				continue
			}
			oKey, _ := rows[0][0].AsInt()
			if _, err := t.ExecPrepared(delNewOrder, num(w), num(oKey)); err != nil {
				return err
			}
			ordRows, err := t.ExecPrepared(selOrder, num(w), num(oKey))
			if err != nil {
				return err
			}
			if _, err := t.ExecPrepared(updOrder, num(w), num(oKey)); err != nil {
				return err
			}
			if _, err := t.ExecPrepared(selOrderLines, num(w), num(oKey*tpccLineSpace), num((oKey+1)*tpccLineSpace-1)); err != nil {
				return err
			}
			cid := int64(1)
			if len(ordRows) > 0 {
				cid, _ = ordRows[0][4].AsInt()
			}
			if _, err := t.ExecPrepared(updCustomerDlvByKey, num(k.customer(w, d, int(cid))), num(w)); err != nil {
				return err
			}
		}
		return nil
	}
	return driver.Op{Sig: sig, Run: run}
}

func (s *tpccStream) stockLevelOp() driver.Op {
	cfg, k, rng := s.cfg, s.k, s.rng
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	sig := s.sig.text("sl w").int(w).text(" d").int(d).String()
	run := func(t *cluster.Txn) error {
		dk := k.district(w, d)
		rows, err := t.ExecPrepared(selDistrictNextByKey, num(dk), num(w))
		if err != nil || len(rows) == 0 {
			return err
		}
		next, _ := rows[0][0].AsInt()
		loO := next - 20
		if loO < 0 {
			loO = 0
		}
		lo := (dk*tpccOrderSpace + loO) * tpccLineSpace
		hi := (dk*tpccOrderSpace + next) * tpccLineSpace
		lines, err := t.ExecPrepared(selLineItems, num(w), num(lo), num(hi))
		if err != nil {
			return err
		}
		seen := map[int64]bool{}
		checked := 0
		for _, r := range lines {
			item, _ := r[0].AsInt()
			if seen[item] {
				continue
			}
			seen[item] = true
			if _, err := t.ExecPrepared(selStockByKey, num(k.stock(w, int(item))), num(w)); err != nil {
				return err
			}
			if checked++; checked >= 20 {
				break
			}
		}
		return nil
	}
	return driver.Op{Sig: sig, Run: run}
}

// --- YCSB ---

// YCSBAStream is the runtime YCSB-A mix (50% point reads, 50% point
// updates, scrambled-Zipf key choice) as a deterministic per-client
// stream.
func YCSBAStream(cfg YCSBConfig) driver.StreamMaker {
	cfg = cfg.withDefaults()
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + int64(client)*7919))
		gen := zipf.NewScrambled(rng, uint64(cfg.Rows), zipf.YCSBTheta)
		var sig sigBuf
		return driver.StreamFunc(func() driver.Op {
			key := int64(gen.Next())
			if rng.Intn(2) == 0 {
				return driver.Op{
					Sig: sig.text("u ").int64(key).String(),
					Run: func(t *cluster.Txn) error {
						_, err := t.ExecPrepared(updUser, num(key))
						return err
					},
				}
			}
			return driver.Op{
				Sig: sig.text("r ").int64(key).String(),
				Run: func(t *cluster.Txn) error {
					_, err := t.ExecPrepared(selUser, num(key))
					return err
				},
			}
		})
	}
}

// YCSBGroupsStream is the runtime group-transaction mix of the drift
// experiments (two reads and one update on distinct members of a skewed
// group) as a deterministic per-client stream.
func YCSBGroupsStream(cfg YCSBGroupsConfig) driver.StreamMaker {
	cfg = cfg.withDefaults()
	groups := cfg.numGroups()
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + int64(client)*7919))
		var sig sigBuf
		return driver.StreamFunc(func() driver.Op {
			// Zipf-free runtime skew: square a uniform draw to warm the
			// low group ids.
			u := rng.Float64()
			g := int(u * u * float64(groups))
			if g >= groups {
				g = groups - 1
			}
			r1, r2, w := cfg.drawMembers(g, rng)
			return driver.Op{
				Sig: sig.text("g").int(g).text(" r").int64(r1).text(" r").int64(r2).text(" w").int64(w).String(),
				Run: func(t *cluster.Txn) error { return runYCSBGroup(t, r1, r2, w) },
			}
		})
	}
}

// --- Simplecount ---

// SimplecountStream is the two-read transaction of the §3
// microbenchmark as a deterministic per-client stream. When distributed
// is false both ids come from the same partition; when true they come
// from two different partitions (forcing two-phase commit), which is the
// second series of Fig. 1. With one partition every transaction is
// local.
func SimplecountStream(cfg SimplecountConfig, distributed bool) driver.StreamMaker {
	per := cfg.Rows / cfg.Partitions
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + int64(client)*7919))
		var sig sigBuf
		return driver.StreamFunc(func() driver.Op {
			p1 := rng.Intn(cfg.Partitions)
			p2 := p1
			if distributed && cfg.Partitions > 1 {
				p2 = (p1 + 1 + rng.Intn(cfg.Partitions-1)) % cfg.Partitions
			}
			id1, id2 := p1*per+rng.Intn(per), p2*per+rng.Intn(per)
			return driver.Op{
				Sig: sig.text("sc ").int(id1).text(" ").int(id2).String(),
				Run: func(t *cluster.Txn) error {
					if _, err := t.ExecPrepared(selCount, num(id1)); err != nil {
						return err
					}
					_, err := t.ExecPrepared(selCount, num(id2))
					return err
				},
			}
		})
	}
}

// --- Epinions ---

// epinionsStream draws the join-free runtime version of the Q1-Q9 social
// mix. The community graph is generated once (deterministically from the
// config seed) and shared read-only by every client stream.
type epinionsStream struct {
	g   *epinionsGraph
	rng *rand.Rand
	uz  *zipf.Zipf
	iz  *zipf.Zipf
	sig sigBuf
}

// EpinionsStream is the runtime Epinions mix as a deterministic
// per-client stream. Runtime joins are not supported by the executor, so
// Q1/Q2 decompose into their index lookups (trust by source, then
// reviews by item / users by id).
func EpinionsStream(cfg EpinionsConfig) driver.StreamMaker {
	cfg = cfg.withDefaults()
	g := generateEpinions(cfg, rand.New(rand.NewSource(cfg.Seed)))
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + int64(client)*7919))
		return &epinionsStream{
			g:   g,
			rng: rng,
			uz:  zipf.New(rng, uint64(cfg.Users), 0.9),
			iz:  zipf.New(rng, uint64(cfg.Items), 0.9),
		}
	}
}

// Next implements driver.Stream.
func (s *epinionsStream) Next() driver.Op {
	g, rng := s.g, s.rng
	u := int64(s.uz.Next())
	itemFor := func() int64 {
		if rng.Float64() < g.cfg.IntraProb {
			items := g.commItems[g.userComm[u]]
			return items[int(s.iz.Next())%len(items)]
		}
		return int64(s.iz.Next())
	}
	switch p := rng.Intn(100); {
	case p < 30: // Q1: reviews of item i by users trusted by u
		i := itemFor()
		return driver.Op{
			Sig: s.sig.text("q1 u").int64(u).text(" i").int64(i).String(),
			Run: func(t *cluster.Txn) error {
				if _, err := t.ExecPrepared(selTrustBySource, num(u)); err != nil {
					return err
				}
				_, err := t.ExecPrepared(selReviewsByItem, num(i))
				return err
			},
		}
	case p < 45: // Q2: users trusted by u
		return driver.Op{
			Sig: s.sig.text("q2 u").int64(u).String(),
			Run: func(t *cluster.Txn) error {
				rows, err := t.ExecPrepared(selTrustBySource, num(u))
				if err != nil {
					return err
				}
				for n, row := range rows {
					if n >= 5 {
						break
					}
					target, _ := row[2].AsInt()
					if _, err := t.ExecPrepared(selMember, num(target)); err != nil {
						return err
					}
				}
				return nil
			},
		}
	case p < 57: // Q3: all ratings of an item
		i := itemFor()
		return driver.Op{
			Sig: s.sig.text("q3 i").int64(i).String(),
			Run: func(t *cluster.Txn) error {
				_, err := t.ExecPrepared(selReviewsByItem, num(i))
				return err
			},
		}
	case p < 82: // Q4: top reviews of an item
		i := itemFor()
		return driver.Op{
			Sig: s.sig.text("q4 i").int64(i).String(),
			Run: func(t *cluster.Txn) error {
				_, err := t.ExecPrepared(selTopReviewsByItem, num(i))
				return err
			},
		}
	case p < 85: // Q5: top reviews of a user
		return driver.Op{
			Sig: s.sig.text("q5 u").int64(u).String(),
			Run: func(t *cluster.Txn) error {
				_, err := t.ExecPrepared(selTopReviewsByUser, num(u))
				return err
			},
		}
	case p < 87: // Q6: update user profile
		return driver.Op{
			Sig: s.sig.text("q6 u").int64(u).String(),
			Run: func(t *cluster.Txn) error {
				_, err := t.ExecPrepared(updMemberRep, num(u))
				return err
			},
		}
	case p < 90: // Q7: update item metadata
		i := itemFor()
		return driver.Op{
			Sig: s.sig.text("q7 i").int64(i).String(),
			Run: func(t *cluster.Txn) error {
				_, err := t.ExecPrepared(updItemTitle, num(i))
				return err
			},
		}
	case p < 97: // Q8: update one of u's reviews (skip users without any)
		if rids := g.byUser[u]; len(rids) > 0 {
			rid := rids[rng.Intn(len(rids))]
			rating := 1 + rng.Intn(5)
			return driver.Op{
				Sig: s.sig.text("q8 r").int64(rid).text(" v").int(rating).String(),
				Run: func(t *cluster.Txn) error {
					_, err := t.ExecPrepared(updReviewRating, num(rating), num(rid))
					return err
				},
			}
		}
		return s.readUserOp(u)
	default: // Q9: update one of u's trust edges (skip users without any)
		if tids := g.bySource[u]; len(tids) > 0 {
			tid := tids[rng.Intn(len(tids))]
			v := rng.Intn(2)
			return driver.Op{
				Sig: s.sig.text("q9 t").int64(tid).text(" v").int(v).String(),
				Run: func(t *cluster.Txn) error {
					_, err := t.ExecPrepared(updTrustValue, num(v), num(tid))
					return err
				},
			}
		}
		return s.readUserOp(u)
	}
}

// readUserOp is the fallback for write ops whose subject has no edges.
func (s *epinionsStream) readUserOp(u int64) driver.Op {
	return driver.Op{
		Sig: s.sig.text("ru u").int64(u).String(),
		Run: func(t *cluster.Txn) error {
			_, err := t.ExecPrepared(selMember, num(u))
			return err
		},
	}
}

// sigBuf renders an Op's Sig byte for byte as fmt renders its format —
// %d through strconv, a []int's %v as "[a b c]" — without boxing every
// value. A stream keeps one and each Sig starts it over; only the
// finished string is allocated.
type sigBuf struct{ b []byte }

// text appends literal text.
func (w *sigBuf) text(s string) *sigBuf {
	w.b = append(w.b, s...)
	return w
}

func (w *sigBuf) int(v int) *sigBuf { return w.int64(int64(v)) }

func (w *sigBuf) int64(v int64) *sigBuf {
	w.b = strconv.AppendInt(w.b, v, 10)
	return w
}

func (w *sigBuf) ints(vs []int) *sigBuf {
	w.b = append(w.b, '[')
	for i, v := range vs {
		if i > 0 {
			w.b = append(w.b, ' ')
		}
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
	w.b = append(w.b, ']')
	return w
}

// String returns the Sig and empties the buffer for the next one.
func (w *sigBuf) String() string {
	s := string(w.b)
	w.b = w.b[:0]
	return s
}
