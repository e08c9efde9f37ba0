SELECT orders_1.o_orderkey
FROM orders orders_1
WHERE NOT EXISTS (
    SELECT * FROM lineitem lineitem_2, part part_3, supplier supplier_4, nation nation_5 WHERE lineitem_2.l_orderkey = orders_1.o_orderkey AND ( part_3.p_name LIKE '%red%' OR part_3.p_name IS NULL ) AND ( supplier_4.s_nationkey = nation_5.n_nationkey OR supplier_4.s_nationkey IS NULL ) AND ( nation_5.n_name = 'FRANCE' OR nation_5.n_name IS NULL ) AND lineitem_2.l_partkey = part_3.p_partkey AND lineitem_2.l_suppkey = supplier_4.s_suppkey )
  AND NOT EXISTS (
    SELECT * FROM lineitem lineitem_6, supplier supplier_7, nation nation_8 WHERE lineitem_6.l_orderkey = orders_1.o_orderkey AND ( supplier_7.s_nationkey = nation_8.n_nationkey OR supplier_7.s_nationkey IS NULL ) AND ( nation_8.n_name = 'FRANCE' OR nation_8.n_name IS NULL ) AND lineitem_6.l_partkey IS NULL AND lineitem_6.l_suppkey = supplier_7.s_suppkey AND EXISTS (
    SELECT * FROM part part_9 WHERE ( part_9.p_name LIKE '%red%' OR part_9.p_name IS NULL ) ) )
  AND NOT EXISTS (
    SELECT * FROM lineitem lineitem_10, part part_11 WHERE lineitem_10.l_orderkey = orders_1.o_orderkey AND ( part_11.p_name LIKE '%red%' OR part_11.p_name IS NULL ) AND lineitem_10.l_partkey = part_11.p_partkey AND lineitem_10.l_suppkey IS NULL AND EXISTS (
    SELECT * FROM supplier supplier_12, nation nation_13 WHERE ( supplier_12.s_nationkey = nation_13.n_nationkey OR supplier_12.s_nationkey IS NULL ) AND ( nation_13.n_name = 'FRANCE' OR nation_13.n_name IS NULL ) ) )
  AND NOT EXISTS (
    SELECT * FROM lineitem lineitem_14 WHERE lineitem_14.l_orderkey = orders_1.o_orderkey AND lineitem_14.l_partkey IS NULL AND lineitem_14.l_suppkey IS NULL AND EXISTS (
    SELECT * FROM part part_15 WHERE ( part_15.p_name LIKE '%red%' OR part_15.p_name IS NULL ) ) AND EXISTS (
    SELECT * FROM supplier supplier_16, nation nation_17 WHERE ( supplier_16.s_nationkey = nation_17.n_nationkey OR supplier_16.s_nationkey IS NULL ) AND ( nation_17.n_name = 'FRANCE' OR nation_17.n_name IS NULL ) ) )
