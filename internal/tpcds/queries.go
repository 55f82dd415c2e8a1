package tpcds

// Query is one workload entry; Class follows the §7/Figure 15 grouping.
type Query struct {
	ID    string
	SQL   string
	Class string // "noagg", "local", "global", "scalar"
	Note  string
}

// Queries returns the 24-query TPC-DS-like workload. The paper evaluates
// 84 of the 99 official queries; this reproduction keeps a representative
// subset spanning the dimensions its analysis groups by — aggregation
// class (none/local/global/scalar), fact×dimension join width, multi-fact
// UNION ALL blocks, and correlated subqueries — with ids echoing the
// official queries each shape is modeled on. All run without ORDER BY and
// LIMIT (§8.1.1).
func Queries() []Query {
	return []Query{
		// ---- no aggregation (q37/q82/q84 shapes) ----
		{ID: "q37", Class: "noagg", SQL: `
SELECT DISTINCT i_item_id, i_current_price
FROM item, catalog_sales, date_dim
WHERE i_item_sk = cs_item_sk AND cs_sold_date_sk = d_date_sk
  AND d_year = 2000 AND i_current_price BETWEEN 20 AND 45
  AND i_manufact_id BETWEEN 1 AND 40`},

		{ID: "q82", Class: "noagg", SQL: `
SELECT DISTINCT i_item_id, i_current_price
FROM item, store_sales, date_dim
WHERE i_item_sk = ss_item_sk AND ss_sold_date_sk = d_date_sk
  AND d_year = 2001 AND i_current_price BETWEEN 10 AND 35
  AND i_manufact_id BETWEEN 20 AND 60`},

		{ID: "q84", Class: "noagg", SQL: `
SELECT DISTINCT c_customer_id, ca_city
FROM customer, customer_address, store_sales
WHERE c_current_addr_sk = ca_address_sk AND ss_customer_sk = c_customer_sk
  AND ca_city = 'Fairview'`},

		// ---- local aggregation ----
		{ID: "q42", Class: "local", SQL: `
SELECT i_category, SUM(ss_ext_sales_price) AS total_sales
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND d_year = 2000 AND i_category IS NOT NULL
GROUP BY i_category`},

		{ID: "q52", Class: "local", SQL: `
SELECT i_brand, SUM(ss_ext_sales_price) AS ext_price
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND d_moy = 11 AND d_year = 1999
GROUP BY i_brand`},

		{ID: "q55", Class: "local", SQL: `
SELECT i_brand, SUM(ws_ext_sales_price)
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
  AND d_moy = 12 AND d_year = 2000 AND i_manufact_id BETWEEN 1 AND 50
GROUP BY i_brand`},

		{ID: "q7", Class: "local", SQL: `
SELECT i_item_id, AVG(ss_quantity), AVG(ss_sales_price), AVG(ss_ext_sales_price)
FROM store_sales, item, date_dim, promotion
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND ss_promo_sk = p_promo_sk AND d_year = 2000
  AND (p_channel_email = 'N' OR p_channel_tv = 'N')
GROUP BY i_item_id`},

		{ID: "q12", Class: "local", SQL: `
SELECT i_item_id, i_category, SUM(ws_ext_sales_price) AS itemrevenue
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
  AND i_category IN ('Books', 'Home', 'Sports')
  AND d_date BETWEEN DATE '1999-02-22' AND DATE '1999-02-22' + INTERVAL '90' DAY
GROUP BY i_item_id, i_category`,
			Note: "i_item_id keys the group (item id determines category)"},

		{ID: "q56", Class: "local", Note: "the WITH-clause arms become one UNION ALL chain", SQL: `
SELECT i_item_id, SUM(ss_ext_sales_price) AS total_sales
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND d_year = 2001 AND d_moy = 2 AND i_category = 'Music'
GROUP BY i_item_id
UNION ALL
SELECT i_item_id, SUM(ws_ext_sales_price) AS total_sales
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
  AND d_year = 2001 AND d_moy = 2 AND i_category = 'Music'
GROUP BY i_item_id
UNION ALL
SELECT i_item_id, SUM(cs_ext_sales_price) AS total_sales
FROM catalog_sales, item, date_dim
WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
  AND d_year = 2001 AND d_moy = 2 AND i_category = 'Music'
GROUP BY i_item_id`},

		{ID: "q1", Class: "local", Note: "store-returns correlation becomes a per-store profit threshold", SQL: `
SELECT c_customer_id, COUNT(*) AS cnt
FROM store_sales, customer
WHERE ss_customer_sk = c_customer_sk
  AND ss_net_profit > (SELECT 1.2 * AVG(ss2.ss_net_profit)
                       FROM store_sales ss2
                       WHERE ss2.ss_store_sk = ss_store_sk)
GROUP BY c_customer_id`},

		{ID: "q50", Class: "local", SQL: `
SELECT s_store_name, SUM(ss_net_profit)
FROM store_sales, store, date_dim
WHERE ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
  AND d_year = 2001
GROUP BY s_store_name`},

		// ---- global aggregation ----
		{ID: "q18", Class: "global", SQL: `
SELECT i_category, ca_state, AVG(cs_quantity), AVG(cs_ext_sales_price)
FROM catalog_sales, item, customer, customer_address, date_dim
WHERE cs_item_sk = i_item_sk AND cs_bill_customer_sk = c_customer_sk
  AND c_current_addr_sk = ca_address_sk AND cs_sold_date_sk = d_date_sk
  AND d_year = 2001
GROUP BY i_category, ca_state`},

		{ID: "q22", Class: "global", SQL: `
SELECT i_category, i_brand, AVG(cs_quantity) AS qoh
FROM catalog_sales, item, warehouse, date_dim
WHERE cs_item_sk = i_item_sk AND cs_warehouse_sk = w_warehouse_sk
  AND cs_sold_date_sk = d_date_sk AND d_year BETWEEN 1999 AND 2001
GROUP BY i_category, i_brand`},

		{ID: "q45", Class: "global", SQL: `
SELECT ca_city, d_year, SUM(ws_ext_sales_price)
FROM web_sales, customer, customer_address, date_dim
WHERE ws_bill_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk
  AND ws_sold_date_sk = d_date_sk AND d_qoy = 2
GROUP BY ca_city, d_year`},

		{ID: "q69", Class: "global", SQL: `
SELECT ca_state, c_preferred_cust_flag, COUNT(*) AS cnt
FROM customer, customer_address
WHERE c_current_addr_sk = ca_address_sk
  AND EXISTS (SELECT 1 FROM store_sales, date_dim
              WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
                AND d_year = 2001)
  AND NOT EXISTS (SELECT 1 FROM web_sales, date_dim
                  WHERE ws_bill_customer_sk = c_customer_sk AND ws_sold_date_sk = d_date_sk
                    AND d_year = 2001)
GROUP BY ca_state, c_preferred_cust_flag`},

		{ID: "q74", Class: "global", SQL: `
SELECT c_customer_id, d_year, SUM(ss_net_profit)
FROM store_sales, customer, date_dim
WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
  AND d_year IN (1999, 2000)
GROUP BY c_customer_id, d_year`},

		{ID: "q31", Class: "global", SQL: `
SELECT ca_city, d_qoy, SUM(ss_ext_sales_price)
FROM store_sales, customer, customer_address, date_dim
WHERE ss_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk
  AND ss_sold_date_sk = d_date_sk AND d_year = 2000
GROUP BY ca_city, d_qoy`},

		{ID: "q66", Class: "global", Note: "two-channel warehouse rollup as a UNION ALL chain", SQL: `
SELECT w_state, d_year, SUM(ws_ext_sales_price) AS sales
FROM web_sales, warehouse, date_dim
WHERE ws_warehouse_sk = w_warehouse_sk AND ws_sold_date_sk = d_date_sk
GROUP BY w_state, d_year
UNION ALL
SELECT w_state, d_year, SUM(cs_ext_sales_price) AS sales
FROM catalog_sales, warehouse, date_dim
WHERE cs_warehouse_sk = w_warehouse_sk AND cs_sold_date_sk = d_date_sk
GROUP BY w_state, d_year`},

		{ID: "q88", Class: "global", SQL: `
SELECT d_day_name, s_store_name, COUNT(*) AS cnt
FROM store_sales, date_dim, store
WHERE ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk
  AND d_year = 2000
GROUP BY d_day_name, s_store_name`},

		{ID: "q76", Class: "global", SQL: `
SELECT i_category, d_year, COUNT(*) AS sales_cnt, SUM(ss_ext_sales_price) AS sales_amt
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND ss_customer_sk IS NULL
GROUP BY i_category, d_year`,
			Note: "the NULL-channel analysis arm of the official query"},

		{ID: "q33", Class: "global", SQL: `
SELECT i_manufact_id, d_moy, SUM(ss_ext_sales_price) AS total_sales
FROM store_sales, item, date_dim, customer, customer_address
WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
  AND ss_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk
  AND i_category = 'Electronics' AND d_year = 1999 AND ca_gmt_offset = -5
GROUP BY i_manufact_id, d_moy`},

		// ---- scalar aggregation ----
		{ID: "q32", Class: "scalar", SQL: `
SELECT SUM(cs_ext_sales_price) AS excess_discount
FROM catalog_sales, item, date_dim
WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
  AND i_manufact_id BETWEEN 1 AND 30 AND d_year = 2000
  AND cs_ext_sales_price > (SELECT 1.3 * AVG(cs2.cs_ext_sales_price)
                            FROM catalog_sales cs2
                            WHERE cs2.cs_item_sk = cs_item_sk)`},

		{ID: "q94", Class: "scalar", Note: "order-number self-exclusion becomes a cross-channel NOT EXISTS", SQL: `
SELECT COUNT(*) AS order_count, SUM(ws_ext_sales_price) AS total_price
FROM web_sales, date_dim, customer_address
WHERE ws_sold_date_sk = d_date_sk AND d_year = 2000
  AND ws_bill_customer_sk IS NOT NULL
  AND EXISTS (SELECT 1 FROM customer
              WHERE c_customer_sk = ws_bill_customer_sk
                AND c_current_addr_sk = ca_address_sk)
  AND ca_state = 'CA'
  AND NOT EXISTS (SELECT 1 FROM catalog_sales
                  WHERE cs_bill_customer_sk = ws_bill_customer_sk
                    AND cs_ext_sales_price > 250)`},

		{ID: "q96", Class: "scalar", SQL: `
SELECT COUNT(*) AS cnt
FROM store_sales, store, date_dim
WHERE ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
  AND d_day_name = 'Saturday' AND ss_quantity BETWEEN 20 AND 60
  AND s_market_id BETWEEN 1 AND 5`},

		{ID: "q90", Class: "scalar", Note: "the AM/PM time-of-day ratio becomes a half-year ratio (no time dimension)", SQL: `
SELECT SUM(CASE WHEN d_moy <= 6 THEN 1 ELSE 0 END) /
       SUM(CASE WHEN d_moy > 6 THEN 1.0 ELSE 0 END) AS ratio
FROM web_sales, date_dim
WHERE ws_sold_date_sk = d_date_sk AND d_year = 2001 AND ws_quantity BETWEEN 10 AND 90`},
	}
}
