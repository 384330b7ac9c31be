//! Random histories of `insert`, re-`insert` with changed fields and
//! `remove` over at most 40 documents. After every step the index is `==`
//! to one built from scratch over the surviving documents (in a shuffled
//! order), and a fixed set of queries returns the same hits and score bits:
//! removal leaves no trace, not even an empty postings list.

use mlake_text::{Field, TextIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

const FIELDS: [Field; 5] = [Field::Name, Field::Tags, Field::Domains, Field::Datasets, Field::Notes];
const WORDS: [&str; 12] = [
    "legal", "medical", "vision", "base", "tuned", "lora", "quant", "news", "chat", "code", "math", "the",
];
const QUERIES: [&str; 7] = [
    "legal",
    "medical vision",
    "base tuned lora",
    "rev3 quant",
    "code math chat news",
    "rev17 the legal",
    "d5 d12 vision",
];

/// SplitMix64: the history's only source of randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Up to four fields of up to six shared words, each field sometimes
/// carrying a token only this step writes (`rev<step>`, as a card update's
/// revision does) or one only this document writes (`d<doc>`).
fn random_fields(rng: &mut Rng, doc: u64, step: usize) -> Vec<(Field, String)> {
    (0..rng.below(5))
        .map(|_| {
            let mut words: Vec<String> =
                (0..rng.below(7)).map(|_| WORDS[rng.below(WORDS.len())].to_string()).collect();
            match rng.below(4) {
                0 => words.push(format!("rev{step}")),
                1 => words.push(format!("d{doc}")),
                _ => {}
            }
            (FIELDS[rng.below(FIELDS.len())], words.join(" "))
        })
        .collect()
}

fn answers(index: &TextIndex) -> Vec<Vec<(u64, u32)>> {
    QUERIES
        .iter()
        .map(|q| index.search(q, 10).into_iter().map(|(d, s)| (d, s.to_bits())).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_history_equals_a_fresh_build_of_its_survivors(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let docs = 1 + rng.below(40);
        let steps = 10 + rng.below(90);
        let mut index = TextIndex::default();
        let mut live: BTreeMap<u64, Vec<(Field, String)>> = BTreeMap::new();
        for step in 0..steps {
            let doc = rng.below(docs) as u64;
            if rng.below(4) == 0 {
                prop_assert_eq!(index.remove(doc), live.remove(&doc).is_some());
            } else {
                let fields = random_fields(&mut rng, doc, step);
                index.insert(doc, &fields);
                live.insert(doc, fields);
            }
            let mut order: Vec<u64> = live.keys().copied().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut fresh = TextIndex::default();
            for doc in order {
                fresh.insert(doc, &live[&doc]);
            }
            prop_assert!(index == fresh, "seed {} step {}: state differs from a fresh build", seed, step);
            prop_assert_eq!(answers(&index), answers(&fresh), "seed {} step {}", seed, step);
        }
    }
}
