-- id: m2n-join
-- alg: Innet-cmg
SELECT S.id, T.id, S.local_time
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND hash(S.u) % 2 = 0
AND T.id > 50 AND hash(T.u) % 2 = 0
AND S.x = T.y + 5 AND S.u = T.u;

-- id: perimeter
-- alg: Innet-cmpg
SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3
AND S.cid = T.cid AND S.id % 4 = T.id % 4
AND S.u = T.u;

-- id: sparse-pairs
-- alg: Innet
-- admit: 10
-- sigma-s: 0.1
-- sigma-st: 0.2
SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u;

-- id: at-base
-- alg: Base
-- admit: 20
-- cycles: 50
SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 40 AND T.id > 60 AND S.x = T.y + 5 AND S.u = T.u;
