//! # fexiot-nlp
//!
//! NLP substrate for the FexIoT reproduction (paper §III-A): a closed-world
//! IoT [`Lexicon`] with WordNet-style relations, tokenization + POS tagging,
//! shallow trigger/action rule parsing, deterministic structured word/sentence
//! embeddings (the spaCy / Universal Sentence Encoder stand-ins), dynamic time
//! warping, Jenks natural breaks, and the rule-pair correlation features that
//! feed the interaction-discovery classifiers.

#![forbid(unsafe_code)]

pub mod dtw;
pub mod embed;
pub mod features;
pub mod jenks;
pub mod lexicon;
pub mod parse;
pub mod tokenize;

pub use embed::{SentenceEncoder, WordEmbedder, SENTENCE_DIM, WORD_DIM};
pub use features::{PairFeatureExtractor, PAIR_FEATURE_DIM, PAIR_FEATURE_NAMES};
pub use lexicon::{LexEntry, Lexicon, PosTag, SemanticClass};
pub use parse::{parse_rule, Clause, RuleParse};
