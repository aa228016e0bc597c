//! A heap map's entries, sorted by key, in blocks of at most [`B`].
//!
//! Nearly every `map_put` a run executes appends a key above every key in
//! its map, so an append is one compare and a push into the last block,
//! and an ascending table fills every block. A block is allocated once,
//! with room for `B` (the first grows from empty, so a small map costs a
//! small `Vec`), so a re-run frees blocks of the size the next one asks
//! for. Heap maps are never iterated: block boundaries are not observable.

use dcatch_model::Value;

use super::MapKey;

/// Entries per block.
const B: usize = 128;

#[derive(Debug, Clone, Default)]
pub(super) struct HeapMap {
    /// Every block non-empty and at most `B` long; the concatenation is
    /// strictly increasing by key.
    blocks: Vec<Vec<(MapKey, Value)>>,
}

impl HeapMap {
    /// The block `key` belongs in, and its index there (`Ok`) or where it
    /// would be inserted (`Err`). `(0, Err(0))` in an empty map.
    fn find(&self, key: &MapKey) -> (usize, Result<usize, usize>) {
        let Some(last) = self.blocks.last() else {
            return (0, Err(0));
        };
        let (tail, top) = (self.blocks.len() - 1, last.len() - 1);
        match key.cmp(&last[top].0) {
            std::cmp::Ordering::Greater => return (tail, Err(top + 1)),
            std::cmp::Ordering::Equal => return (tail, Ok(top)),
            std::cmp::Ordering::Less => {}
        }
        // the first block whose last key is not below `key`: there is one,
        // since the last block's is above it
        let at = self.blocks.partition_point(|b| b[b.len() - 1].0 < *key);
        (at, self.blocks[at].binary_search_by(|(k, _)| k.cmp(key)))
    }

    pub(super) fn get(&self, key: &MapKey) -> Option<&Value> {
        match self.find(key) {
            (at, Ok(i)) => Some(&self.blocks[at][i].1),
            (_, Err(_)) => None,
        }
    }

    pub(super) fn contains_key(&self, key: &MapKey) -> bool {
        self.find(key).1.is_ok()
    }

    pub(super) fn insert(&mut self, key: MapKey, value: Value) {
        let (at, i) = match self.find(&key) {
            (at, Ok(i)) => {
                self.blocks[at][i].1 = value;
                return;
            }
            (at, Err(i)) => (at, i),
        };
        if self.blocks.is_empty() {
            self.blocks.push(Vec::new());
        }
        let at_end = at + 1 == self.blocks.len();
        let block = &mut self.blocks[at];
        if block.len() < B {
            block.insert(i, (key, value));
        } else if i == B && at_end {
            let mut fresh = Vec::with_capacity(B);
            fresh.push((key, value));
            self.blocks.push(fresh);
        } else {
            let mut upper = Vec::with_capacity(B);
            upper.extend(block.drain(B / 2..));
            if i <= B / 2 {
                block.insert(i, (key, value));
            } else {
                upper.insert(i - B / 2, (key, value));
            }
            self.blocks.insert(at + 1, upper);
        }
    }

    pub(super) fn remove(&mut self, key: &MapKey) {
        if let (at, Ok(i)) = self.find(key) {
            self.blocks[at].remove(i);
            if self.blocks[at].is_empty() {
                self.blocks.remove(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dcatch_model::Value;
    use dcatch_obs::rng::SmallRng;

    use super::{HeapMap, MapKey, B};

    /// A `HeapMap` beside the `BTreeMap` it must behave as.
    struct Pair {
        map: HeapMap,
        model: BTreeMap<MapKey, Value>,
        /// Keys looked up after every operation besides the one it touched.
        probes: Vec<MapKey>,
        ops: usize,
    }

    impl Pair {
        fn new(probes: Vec<MapKey>) -> Pair {
            Pair {
                map: HeapMap::default(),
                model: BTreeMap::new(),
                probes,
                ops: 0,
            }
        }

        fn insert(&mut self, key: MapKey, value: Value) {
            self.map.insert(key.clone(), value.clone());
            self.model.insert(key.clone(), value);
            self.check(&key);
        }

        fn remove(&mut self, key: &MapKey) {
            self.map.remove(key);
            self.model.remove(key);
            self.check(key);
        }

        fn check(&mut self, touched: &MapKey) {
            self.ops += 1;
            let op = self.ops;
            for key in std::iter::once(touched).chain(&self.probes) {
                assert_eq!(
                    self.map.get(key),
                    self.model.get(key),
                    "op {op}: get {key:?}"
                );
                assert_eq!(
                    self.map.contains_key(key),
                    self.model.contains_key(key),
                    "op {op}: contains_key {key:?}"
                );
            }
            let blocks = &self.map.blocks;
            for block in blocks {
                assert!(!block.is_empty(), "op {op}: an empty block");
                assert!(block.len() <= B, "op {op}: a block of {}", block.len());
            }
            let flat = blocks.iter().flatten();
            assert!(
                flat.clone().zip(flat.skip(1)).all(|(a, b)| a.0 < b.0),
                "op {op}: keys out of order"
            );
            assert_eq!(blocks.iter().map(Vec::len).sum::<usize>(), self.model.len());
        }

        /// The entries, in order, equal the model's.
        fn check_entries(&self) {
            let entries = self.map.blocks.iter().flatten().map(|(k, v)| (k, v));
            assert!(
                entries.eq(self.model.iter()),
                "entries differ from the model"
            );
        }
    }

    fn int(i: i64) -> MapKey {
        MapKey::of(Value::Int(i))
    }

    /// An integer key, its decimal string (the same key), a padded string
    /// (another key) or a `"k" ++ i` string (not monotone in `i`).
    fn any_key(rng: &mut SmallRng, i: i64) -> MapKey {
        MapKey::of(match rng.gen_range(4) {
            0 => Value::Int(i),
            1 => Value::Str(i.to_string()),
            2 => Value::Str(format!("0{i}")),
            _ => Value::Str(format!("k{i}")),
        })
    }

    const N: i64 = 5 * B as i64;

    #[test]
    fn heap_map_behaves_as_a_btree_map() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut probes: Vec<MapKey> = [-1, 0, 5, 63, 64, 127, 128, N / 2, N - 1, N]
                .into_iter()
                .map(int)
                .collect();
            for text in ["5", "05", "k5", "k10", "k2", ""] {
                probes.push(MapKey::of(Value::Str(text.to_owned())));
            }
            let mut pair = Pair::new(probes);
            // grow past three splits: ascending, descending, random order,
            // or non-monotone string keys with their aliases
            let keys: Vec<MapKey> = match seed % 4 {
                0 => (0..N).map(int).collect(),
                1 => (0..N).rev().map(int).collect(),
                2 => (0..N).map(|_| int(rng.gen_range_i64(-N, N))).collect(),
                _ => (0..N).map(|i| any_key(&mut rng, i)).collect(),
            };
            for (n, key) in keys.iter().enumerate() {
                pair.insert(key.clone(), Value::Int(n as i64));
            }
            // overwrites, fresh inserts and removes, mixed
            for n in 0..N {
                let key = if rng.gen_bool() {
                    keys[rng.gen_range(keys.len())].clone()
                } else {
                    let i = rng.gen_range_i64(-N, 2 * N);
                    any_key(&mut rng, i)
                };
                match rng.gen_range(3) {
                    0 => pair.remove(&key),
                    _ => pair.insert(key, Value::Str(format!("v{n}"))),
                }
            }
            pair.check_entries();
            // a whole block's worth of neighbours, then everything that is
            // left, in a random order: the map ends with no block at all
            let before = pair.map.blocks.len();
            let middle = &pair.map.blocks[before / 2];
            let range = (middle[0].0.clone(), middle[middle.len() - 1].0.clone());
            let doomed: Vec<MapKey> = pair
                .model
                .range(range.0..=range.1)
                .map(|(k, _)| k.clone())
                .collect();
            for key in &doomed {
                pair.remove(key);
            }
            assert!(
                pair.map.blocks.len() < before,
                "seed {seed}: no block emptied"
            );
            let mut rest: Vec<MapKey> = pair.model.keys().cloned().collect();
            while !rest.is_empty() {
                let key = rest.swap_remove(rng.gen_range(rest.len()));
                pair.remove(&key);
            }
            assert!(
                pair.map.blocks.is_empty(),
                "seed {seed}: emptied map keeps blocks"
            );
            // and grows again
            for (n, key) in keys.iter().take(2 * B + 1).enumerate() {
                pair.insert(key.clone(), Value::Int(-(n as i64)));
            }
            pair.check_entries();
        }
    }

    #[test]
    fn ascending_growth_fills_every_block() {
        let mut map = HeapMap::default();
        for i in 0..N + 1 {
            map.insert(int(i), Value::Int(i));
        }
        let lens: Vec<usize> = map.blocks.iter().map(Vec::len).collect();
        assert_eq!(lens, [B, B, B, B, B, 1]);
        assert!(map.blocks.iter().all(|b| b.capacity() == B));
    }
}
