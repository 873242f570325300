package workloads

import (
	"schism/internal/datum"
	"schism/internal/sqlparse"
)

// Every statement the TPC-C, YCSB, Epinions and simplecount streams
// (streams.go) issue at run time, prepared once, so a statement's text exists in one
// place and a call costs a bind, not a format, a lex and a parse.
//
// TPC-C has one statement family: a statement that addresses a row by
// its surrogate key (the ByKey statements) also carries the warehouse
// predicate, so it is routable by lookup tables and hash (the key) and
// by range predicates (the warehouse column) alike.
var (
	selWarehouse   = sqlparse.MustPrepare("SELECT * FROM warehouse WHERE w_id = ?")
	updWarehouse   = sqlparse.MustPrepare("UPDATE warehouse SET w_ytd = w_ytd + 100.00 WHERE w_id = ?")
	selItem        = sqlparse.MustPrepare("SELECT * FROM item WHERE i_id = ?")
	insOrder       = sqlparse.MustPrepare("INSERT INTO orders (o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (?, ?, ?, ?, ?, 0, ?)")
	insNewOrder    = sqlparse.MustPrepare("INSERT INTO new_order (no_key, no_w_id, no_d_id, no_o_id) VALUES (?, ?, ?, ?)")
	insOrderLine   = sqlparse.MustPrepare("INSERT INTO order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_amount) VALUES (?, ?, ?, ?, ?, ?, ?, 9.99)")
	insHistory     = sqlparse.MustPrepare("INSERT INTO history (h_id, h_w_id, h_amount) VALUES (?, ?, 100.00)")
	selLastOrder   = sqlparse.MustPrepare("SELECT * FROM orders WHERE o_w_id = ? AND o_key BETWEEN ? AND ? ORDER BY o_key DESC LIMIT 1")
	selOrder       = sqlparse.MustPrepare("SELECT * FROM orders WHERE o_w_id = ? AND o_key = ?")
	updOrder       = sqlparse.MustPrepare("UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = ? AND o_key = ?")
	selOrderLines  = sqlparse.MustPrepare("SELECT * FROM order_line WHERE ol_w_id = ? AND ol_key BETWEEN ? AND ?")
	selLineItems   = sqlparse.MustPrepare("SELECT ol_i_id FROM order_line WHERE ol_w_id = ? AND ol_key BETWEEN ? AND ?")
	selOldNewOrder = sqlparse.MustPrepare("SELECT * FROM new_order WHERE no_w_id = ? AND no_key BETWEEN ? AND ? ORDER BY no_key LIMIT 1")
	delNewOrder    = sqlparse.MustPrepare("DELETE FROM new_order WHERE no_w_id = ? AND no_key = ?")

	updDistrictNextByKey = sqlparse.MustPrepare("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_key = ? AND d_w_id = ?")
	selDistrictNextByKey = sqlparse.MustPrepare("SELECT d_next_o_id FROM district WHERE d_key = ? AND d_w_id = ?")
	updDistrictYtdByKey  = sqlparse.MustPrepare("UPDATE district SET d_ytd = d_ytd + 100.00 WHERE d_key = ? AND d_w_id = ?")
	selCustomerByKey     = sqlparse.MustPrepare("SELECT * FROM customer WHERE c_key = ? AND c_w_id = ?")
	updCustomerPayByKey  = sqlparse.MustPrepare("UPDATE customer SET c_balance = c_balance - 100.00, c_ytd_payment = c_ytd_payment + 100.00 WHERE c_key = ? AND c_w_id = ?")
	updCustomerDlvByKey  = sqlparse.MustPrepare("UPDATE customer SET c_balance = c_balance + 50.00 WHERE c_key = ? AND c_w_id = ?")
	selStockByKey        = sqlparse.MustPrepare("SELECT * FROM stock WHERE s_key = ? AND s_w_id = ?")
	updStockByKey        = sqlparse.MustPrepare("UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_key = ? AND s_w_id = ?")

	selUser = sqlparse.MustPrepare("SELECT * FROM usertable WHERE ycsb_key = ?")
	updUser = sqlparse.MustPrepare("UPDATE usertable SET field0 = 'u' WHERE ycsb_key = ?")

	selCount = sqlparse.MustPrepare("SELECT * FROM simplecount WHERE id = ?")

	selTrustBySource    = sqlparse.MustPrepare("SELECT * FROM trust WHERE t_source = ?")
	selReviewsByItem    = sqlparse.MustPrepare("SELECT * FROM reviews WHERE r_i_id = ?")
	selTopReviewsByItem = sqlparse.MustPrepare("SELECT * FROM reviews WHERE r_i_id = ? ORDER BY r_rating DESC LIMIT 10")
	selTopReviewsByUser = sqlparse.MustPrepare("SELECT * FROM reviews WHERE r_u_id = ? ORDER BY r_rating DESC LIMIT 10")
	selMember           = sqlparse.MustPrepare("SELECT * FROM users WHERE u_id = ?")
	updMemberRep        = sqlparse.MustPrepare("UPDATE users SET u_rep = u_rep + 1 WHERE u_id = ?")
	updItemTitle        = sqlparse.MustPrepare("UPDATE items SET i_title = 'x' WHERE i_id = ?")
	updReviewRating     = sqlparse.MustPrepare("UPDATE reviews SET r_rating = ? WHERE r_id = ?")
	updTrustValue       = sqlparse.MustPrepare("UPDATE trust SET t_value = ? WHERE t_id = ?")
)

// num is an integer argument of a prepared statement.
func num[T int | int64](v T) datum.D { return datum.NewInt(int64(v)) }
