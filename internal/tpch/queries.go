package tpch

// Query is one workload entry with its aggregation-class annotation used
// by the experiment groupings (Tables 3-4, Figure 15 methodology).
type Query struct {
	ID    string
	SQL   string
	Class string // "noagg", "local", "global", "scalar"
	Note  string // adaptation applied vs. the official query, if any
}

// Queries returns the 22-query TPC-H workload in the supported dialect.
// Per §8.1.1 all queries run without ORDER BY and LIMIT. Queries whose
// official form needs unsupported constructs (derived tables, views,
// substring) are adapted to the nearest shape that preserves their join
// structure and aggregation class; each adaptation is noted.
func Queries() []Query {
	return []Query{
		{ID: "q1", Class: "global", SQL: `
SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice),
       SUM(l_extendedprice * (1 - l_discount)),
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
       AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus`},

		{ID: "q2", Class: "noagg", Note: "min-cost subquery keeps only the partsupp correlation (no nested region join)", SQL: `
SELECT s_acctbal, s_name, n_name, p_partkey
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
  AND ps_supplycost = (SELECT MIN(ps2.ps_supplycost) FROM partsupp ps2
                       WHERE ps2.ps_partkey = p_partkey)`},

		{ID: "q3", Class: "local", SQL: `
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority`},

		{ID: "q4", Class: "local", SQL: `
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '1993-07-01'
  AND o_orderdate < DATE '1993-07-01' + INTERVAL '90' DAY
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority`},

		{ID: "q5", Class: "local", SQL: `
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1994-01-01'
  AND o_orderdate < DATE '1994-01-01' + INTERVAL '365' DAY
GROUP BY n_name`},

		{ID: "q6", Class: "scalar", SQL: `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1994-01-01' + INTERVAL '365' DAY
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},

		{ID: "q7", Class: "global", SQL: `
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       YEAR(l_shipdate) AS l_year, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
  AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
    OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
  AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
GROUP BY n1.n_name, n2.n_name, YEAR(l_shipdate)`},

		{ID: "q8", Class: "global", Note: "nation-volume CASE folded into the top-level aggregation (no derived table)", SQL: `
SELECT YEAR(o_orderdate) AS o_year,
       SUM(CASE WHEN n2.n_name = 'BRAZIL' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
         / SUM(l_extendedprice * (1 - l_discount)) AS mkt_share
FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
  AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
  AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA'
  AND s_nationkey = n2.n_nationkey
  AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
  AND p_type = 'ECONOMY BRUSHED STEEL'
GROUP BY YEAR(o_orderdate)`},

		{ID: "q9", Class: "global", SQL: `
SELECT n_name, YEAR(o_orderdate) AS o_year,
       SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
  AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
  AND p_name LIKE '%POLISHED%'
GROUP BY n_name, YEAR(o_orderdate)`},

		{ID: "q10", Class: "local", SQL: `
SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1993-10-01' + INTERVAL '90' DAY
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name`},

		{ID: "q11", Class: "local", SQL: `
SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING SUM(ps_supplycost * ps_availqty) >
       (SELECT SUM(ps2.ps_supplycost * ps2.ps_availqty) * 0.01
        FROM partsupp ps2, supplier s2, nation n2
        WHERE ps2.ps_suppkey = s2.s_suppkey AND s2.s_nationkey = n2.n_nationkey
          AND n2.n_name = 'GERMANY')`},

		{ID: "q12", Class: "local", SQL: `
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01'
  AND l_receiptdate < DATE '1994-01-01' + INTERVAL '365' DAY
GROUP BY l_shipmode`},

		{ID: "q13", Class: "local", Note: "reports per-customer order counts directly (the official outer distribution needs a derived table)", SQL: `
SELECT c_custkey, COUNT(o_orderkey) AS c_count
FROM customer LEFT JOIN orders
  ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
GROUP BY c_custkey`},

		{ID: "q14", Class: "scalar", SQL: `
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01'
  AND l_shipdate < DATE '1995-09-01' + INTERVAL '30' DAY`},

		{ID: "q15", Class: "local", Note: "top supplier threshold uses 2x the average revenue share (the official MAX-over-view needs a view)", SQL: `
SELECT s_suppkey, s_name, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM supplier, lineitem
WHERE s_suppkey = l_suppkey AND l_shipdate >= DATE '1996-01-01'
  AND l_shipdate < DATE '1996-01-01' + INTERVAL '90' DAY
GROUP BY s_suppkey, s_name
HAVING SUM(l_extendedprice * (1 - l_discount)) >
       (SELECT 2 * SUM(l2.l_extendedprice * (1 - l2.l_discount)) / COUNT(DISTINCT l2.l_suppkey)
        FROM lineitem l2
        WHERE l2.l_shipdate >= DATE '1996-01-01'
          AND l2.l_shipdate < DATE '1996-01-01' + INTERVAL '90' DAY)`},

		{ID: "q16", Class: "global", SQL: `
SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#33'
  AND p_size IN (9, 14, 19, 23, 36, 45, 49, 3)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size`},

		{ID: "q17", Class: "scalar", SQL: `
SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.5 * AVG(l2.l_quantity) FROM lineitem l2
                    WHERE l2.l_partkey = p_partkey)`},

		{ID: "q18", Class: "global", SQL: `
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity)
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey HAVING SUM(l_quantity) > 210)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice`},

		{ID: "q19", Class: "scalar", SQL: `
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX')
        AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5
        AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
    OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX')
        AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10
        AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
    OR (p_brand = 'Brand#31' AND p_container IN ('LG CASE', 'LG BOX')
        AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15
        AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON'))`},

		{ID: "q20", Class: "noagg", SQL: `
SELECT s_name, s_acctbal
FROM supplier, nation
WHERE s_suppkey IN (SELECT ps_suppkey FROM partsupp
                    WHERE ps_partkey IN (SELECT p_partkey FROM part
                                         WHERE p_name LIKE 'part SMALL%')
                      AND ps_availqty > (SELECT 0.5 * SUM(l_quantity) FROM lineitem
                                         WHERE l_partkey = ps_partkey
                                           AND l_suppkey = ps_suppkey
                                           AND l_shipdate >= DATE '1994-01-01'
                                           AND l_shipdate < DATE '1994-01-01' + INTERVAL '365' DAY))
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'`},

		{ID: "q21", Class: "local", Note: "the suppkey-inequality arms of the official EXISTS pair are dropped; the unqualified l_orderkey in each subquery binds to that subquery's own lineitem (innermost scope), so neither is correlated, the NOT EXISTS is false once any late lineitem shipped by AIR exists, and the query answers the empty set", SQL: `
SELECT s_name, COUNT(*) AS numwait
FROM supplier, lineitem, orders, nation
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND o_orderstatus = 'F'
  AND l_receiptdate > l_commitdate AND s_nationkey = n_nationkey
  AND n_name = 'SAUDI ARABIA'
  AND EXISTS (SELECT 1 FROM lineitem l2 WHERE l2.l_orderkey = l_orderkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l_orderkey
                    AND l3.l_receiptdate > l3.l_commitdate AND l3.l_shipmode = 'AIR')
GROUP BY s_name`},

		{ID: "q22", Class: "local", Note: "country-code substring folded to nation-key IN list", SQL: `
SELECT c_nationkey, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
FROM customer
WHERE c_acctbal > (SELECT AVG(c2.c_acctbal) FROM customer c2 WHERE c2.c_acctbal > 0.00)
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
  AND c_nationkey IN (7, 9, 11, 13, 17, 19, 23)
GROUP BY c_nationkey`},
	}
}

// ByID returns the query with the given id, or nil.
func ByID(id string) *Query {
	for _, q := range Queries() {
		if q.ID == id {
			return &q
		}
	}
	return nil
}
