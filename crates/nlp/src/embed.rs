//! Word and sentence embeddings.
//!
//! Substitutes spaCy's 300-d `en_core_web_lg` vectors and the 512-d Universal
//! Sentence Encoder (paper §IV-A). Vectors are deterministic functions of the
//! word: a hash-seeded random base direction plus *structured* components
//! shared by words with the same synset, semantic class, physical channel, and
//! polarity. Relatedness in the lexicon therefore maps to cosine similarity in
//! embedding space — the only property the downstream classifiers and GNNs
//! rely on.

use crate::lexicon::Lexicon;
use fexiot_tensor::codec::{fnv1a_extend, FNV1A_OFFSET};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::rng::Rng;

/// Dimensionality of word embeddings (matches spaCy's 300).
pub const WORD_DIM: usize = 300;
/// Dimensionality of sentence embeddings (matches USE's 512).
pub const SENTENCE_DIM: usize = 512;

/// FNV-1a hash for deterministic per-string seeding.
fn fnv1a(s: &str) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, s.as_bytes())
}

fn seeded_unit_vector(seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut v: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
    normalize(&mut v);
    v
}

fn normalize(v: &mut [f64]) {
    let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

fn add_scaled(acc: &mut [f64], v: &[f64], s: f64) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a += s * b;
    }
}

/// Deterministic word embedder with lexicon-aware structure.
pub struct WordEmbedder {
    dim: usize,
}

impl WordEmbedder {
    pub fn new() -> Self {
        Self { dim: WORD_DIM }
    }

    /// An embedder with a custom dimensionality (scaled-down experiments).
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim >= 4, "embedding dim too small");
        Self { dim }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds one word. Unit-norm output.
    ///
    /// Composition: `0.45 * base(word | synset)` + `0.55 * class` +
    /// `0.6 * channel` + `0.3 * polarity * polarity_axis`, normalized.
    /// Words in the same synset share their base direction entirely, so
    /// synonyms are near-identical; words sharing a channel or class are
    /// moderately close; unrelated words are near-orthogonal.
    pub fn embed(&self, word: &str, lex: &Lexicon) -> Vec<f64> {
        let entry = lex.get(word);
        // Synonyms share one base vector (keyed by synset id).
        let base_key = match entry.and_then(|e| e.synset) {
            Some(sid) => format!("synset#{sid}"),
            None => word.to_string(),
        };
        let mut v = seeded_unit_vector(fnv1a(&base_key), self.dim);
        for x in v.iter_mut() {
            *x *= 0.45;
        }
        if let Some(e) = entry {
            let class_vec = seeded_unit_vector(fnv1a(&format!("class#{:?}", e.class)), self.dim);
            add_scaled(&mut v, &class_vec, 0.55);
            if let Some(ch) = e.channel {
                let ch_vec = seeded_unit_vector(fnv1a(&format!("channel#{ch}")), self.dim);
                add_scaled(&mut v, &ch_vec, 0.6);
            }
            if e.polarity != 0 {
                let pol_vec = seeded_unit_vector(fnv1a("axis#polarity"), self.dim);
                add_scaled(&mut v, &pol_vec, 0.3 * e.polarity as f64);
            }
        }
        normalize(&mut v);
        v
    }

    /// Embeds a token sequence as a matrix with one word vector per row.
    pub fn embed_sequence(&self, words: &[String], lex: &Lexicon) -> Matrix {
        let mut out = Matrix::zeros(words.len(), self.dim);
        for (i, w) in words.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&self.embed(w, lex));
        }
        out
    }

    /// Mean of the word vectors (zero vector for empty input).
    pub fn embed_mean(&self, words: &[String], lex: &Lexicon) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        if words.is_empty() {
            return acc;
        }
        for w in words {
            add_scaled(&mut acc, &self.embed(w, lex), 1.0);
        }
        let inv = 1.0 / words.len() as f64;
        for x in &mut acc {
            *x *= inv;
        }
        acc
    }

    /// Trigger-action pair embedding per Eq. (1): mean of the trigger-word
    /// embeddings plus mean of the action-word embeddings.
    pub fn pair_embedding(&self, trigger: &[String], action: &[String], lex: &Lexicon) -> Vec<f64> {
        let t = self.embed_mean(trigger, lex);
        let a = self.embed_mean(action, lex);
        t.iter().zip(&a).map(|(x, y)| x + y).collect()
    }
}

impl Default for WordEmbedder {
    fn default() -> Self {
        Self::new()
    }
}

/// Sentence encoder: position-mixed bag of word embeddings projected to
/// [`SENTENCE_DIM`] (the Universal Sentence Encoder stand-in).
pub struct SentenceEncoder {
    words: WordEmbedder,
    dim: usize,
}

impl SentenceEncoder {
    pub fn new() -> Self {
        Self {
            words: WordEmbedder::new(),
            dim: SENTENCE_DIM,
        }
    }

    pub fn with_dims(word_dim: usize, sentence_dim: usize) -> Self {
        Self {
            words: WordEmbedder::with_dim(word_dim),
            dim: sentence_dim,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes a sentence into a unit-norm vector. Word order matters weakly:
    /// each word vector is cyclically shifted by its position before pooling,
    /// so "turn on the light" and "the light turn on" differ slightly while
    /// bag-of-words content dominates.
    pub fn encode(&self, words: &[String], lex: &Lexicon) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        if words.is_empty() {
            return out;
        }
        let wdim = self.words.dim();
        for (pos, w) in words.iter().enumerate() {
            let e = self.words.embed(w, lex);
            // Project word-dim -> sentence-dim by tiling. The dominant term is
            // position-independent (bag of words); a small positionally-rotated
            // term makes word order matter weakly. Position decay keeps early
            // words (root verbs) most influential.
            let decay = 1.0 / (1.0 + 0.1 * pos as f64);
            for j in 0..self.dim {
                out[j] += decay * (e[j % wdim] + 0.15 * e[(j + pos) % wdim]);
            }
        }
        normalize(&mut out);
        out
    }
}

impl Default for SentenceEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Cosine similarity helper re-exported for feature code.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    fexiot_tensor::stats::cosine_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;

    fn s(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn embeddings_deterministic_and_unit_norm() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let a = emb.embed("light", &lex);
        let b = emb.embed("light", &lex);
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(a.len(), WORD_DIM);
    }

    #[test]
    fn synonyms_are_close_unrelated_are_far() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let lamp = emb.embed("lamp", &lex);
        let bulb = emb.embed("bulb", &lex);
        let start = emb.embed("start", &lex);
        let begin = emb.embed("begin", &lex);
        let sim_syn = cosine(&lamp, &bulb);
        let sim_verb_syn = cosine(&start, &begin);
        let sim_cross = cosine(&lamp, &start);
        assert!(sim_syn > 0.95, "lamp/bulb sim {sim_syn}");
        assert!(sim_verb_syn > 0.95, "start/begin sim {sim_verb_syn}");
        assert!(sim_cross < 0.5, "lamp/start sim {sim_cross}");
    }

    #[test]
    fn shared_channel_raises_similarity() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let heater = emb.embed("heater", &lex);
        let thermostat = emb.embed("thermostat", &lex);
        let speaker = emb.embed("speaker", &lex);
        assert!(cosine(&heater, &thermostat) > cosine(&heater, &speaker));
    }

    #[test]
    fn polarity_separates_on_off() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let on = emb.embed("on", &lex);
        let off = emb.embed("off", &lex);
        let active = emb.embed("active", &lex);
        assert!(
            cosine(&on, &active) > cosine(&on, &off),
            "polarity should separate on/off"
        );
    }

    #[test]
    fn oov_words_still_embed() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let v = emb.embed("frobnicator", &lex);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_embedding_is_sum_of_means() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let p = emb.pair_embedding(&s(&["smoke"]), &s(&["fan"]), &lex);
        let t = emb.embed("smoke", &lex);
        let a = emb.embed("fan", &lex);
        for i in 0..WORD_DIM {
            assert!((p[i] - (t[i] + a[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn sentence_encoder_orders_weakly() {
        let lex = Lexicon::new();
        let enc = SentenceEncoder::new();
        let a = enc.encode(&s(&["turn", "on", "the", "light"]), &lex);
        let b = enc.encode(&s(&["turn", "on", "the", "light"]), &lex);
        let c = enc.encode(&s(&["light", "the", "on", "turn"]), &lex);
        let d = enc.encode(&s(&["lock", "the", "door"]), &lex);
        assert_eq!(a, b);
        assert!(cosine(&a, &c) > 0.6, "reordering keeps content");
        assert!(cosine(&a, &c) < 0.999999, "order still matters a little");
        assert!(cosine(&a, &d) < cosine(&a, &c));
        assert_eq!(a.len(), SENTENCE_DIM);
    }

    #[test]
    fn empty_inputs_are_zero_vectors() {
        let lex = Lexicon::new();
        let emb = WordEmbedder::new();
        let enc = SentenceEncoder::new();
        assert!(emb.embed_mean(&[], &lex).iter().all(|&x| x == 0.0));
        assert!(enc.encode(&[], &lex).iter().all(|&x| x == 0.0));
    }
}
