// text_bytes: real bytes through textproc and mapreduce.
//
// Set-up generates a Text_400K-shaped corpus of real text: file sizes from
// text_400k_sizes(), sentences from TextGenerator, one sentence per line,
// each file ending in a newline.  It trains the POS tagger, reshapes the
// corpus with merge_to_unit at 1 MB and materialize()s the blocks.  One
// operation is one job over the blocks: grep a fixed set of literal and
// regex patterns, POS-tag every eighth block, and run word_count_job on a
// three-thread LocalRunner over combined_splits.  Planning and simulation
// are bypassed.
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "corpus/textgen.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "reshape/merge.hpp"
#include "textproc/pos.hpp"
#include "textproc/scanner.hpp"
#include "textproc/tokenizer.hpp"

namespace perfbench {
namespace {

using namespace reshape;

constexpr std::uint64_t kCorpusBytes = 32'000'000;  // 4x the per-core L2
constexpr Bytes kUnit = 1_MB;
constexpr std::size_t kTagEvery = 8;  // tag blocks 0, 8, 16, ...
constexpr std::size_t kThreads = 3;   // LocalRunner workers + main = 4
constexpr double kTagAccuracyFloor = 0.95;

const std::vector<std::string> kLiterals = {"this", "each", "They", "from"};
const std::vector<std::string> kRegexes = {"^The [a-z]+ness", "[a-z]ly ",
                                           "o.e"};

// ---------------------------------------------------------------- oracles
// Plain line-by-line scans written apart from textproc.

bool is_lower(char c) { return c >= 'a' && c <= 'z'; }
bool is_alpha(char c) { return is_lower(c) || (c >= 'A' && c <= 'Z'); }

/// Does `line` match regex number `which` of kRegexes?
bool oracle_regex(std::size_t which, std::string_view line) {
  switch (which) {
    case 0: {  // ^The [a-z]+ness
      if (line.substr(0, 4) != "The ") return false;
      std::size_t end = 4;
      while (end < line.size() && is_lower(line[end])) ++end;
      const std::string_view word = line.substr(4, end - 4);
      const std::size_t at = word.find("ness", 1);
      return at != std::string_view::npos;
    }
    case 1: {  // [a-z]ly<space>
      for (std::size_t at = line.find("ly "); at != std::string_view::npos;
           at = line.find("ly ", at + 1)) {
        if (at > 0 && is_lower(line[at - 1])) return true;
      }
      return false;
    }
    case 2: {  // o.e
      for (std::size_t i = 0; i + 2 < line.size(); ++i) {
        if (line[i] == 'o' && line[i + 2] == 'e') return true;
      }
      return false;
    }
  }
  return false;
}

template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

struct Oracle {
  std::vector<std::size_t> matching;  // literals, then regexes
  std::map<std::string, std::uint64_t> words;
  std::vector<std::size_t> tokens;  // per block: words + punctuation
};

Oracle build_oracle(const std::vector<std::string>& files,
                    const std::vector<std::string>& blocks) {
  Oracle o;
  o.matching.assign(kLiterals.size() + kRegexes.size(), 0);
  for (const std::string& file : files) {
    for_each_line(file, [&](std::string_view line) {
      for (std::size_t p = 0; p < kLiterals.size(); ++p) {
        if (line.find(kLiterals[p]) != std::string_view::npos) {
          ++o.matching[p];
        }
      }
      for (std::size_t p = 0; p < kRegexes.size(); ++p) {
        if (oracle_regex(p, line)) ++o.matching[kLiterals.size() + p];
      }
    });
    std::string word;
    for (const char c : file) {
      if (is_alpha(c)) {
        word += static_cast<char>(c | 0x20);
      } else if (!word.empty()) {
        ++o.words[word];
        word.clear();
      }
    }
    if (!word.empty()) ++o.words[word];
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::size_t n = 0;
    bool in_word = false;
    for (const char c : blocks[b]) {
      const bool alpha = is_alpha(c);
      if (alpha && !in_word) ++n;
      const auto u = static_cast<unsigned char>(c);
      if (u > 32 && u < 127 && !alpha && !(c >= '0' && c <= '9')) ++n;
      in_word = alpha;
    }
    o.tokens.push_back(n);
  }
  return o;
}

// ------------------------------------------------------------------- job

struct Job {
  double literal_s = 0.0, regex_s = 0.0, tag_s = 0.0, wc_s = 0.0;
  std::uint64_t tagged_bytes = 0;
  mr::JobStats wc_stats;
  std::string failure;
  [[nodiscard]] double wall_s() const {
    return literal_s + regex_s + tag_s + wc_s;
  }
};

Job run_job(const std::vector<std::string>& blocks,
            const std::vector<mr::Split>& splits,
            const textproc::PosTagger& tagger,
            const std::vector<corpus::TaggedSentence>& gold,
            const Oracle& oracle) {
  Job job;
  Checks c;
  std::vector<std::size_t> matching(kLiterals.size() + kRegexes.size(), 0);

  Clock::time_point t0 = Clock::now();
  for (std::size_t p = 0; p < kLiterals.size(); ++p) {
    for (const std::string& block : blocks) {
      matching[p] += textproc::grep_literal(block, kLiterals[p]).matching_lines;
    }
  }
  job.literal_s = since(t0);
  t0 = Clock::now();
  for (std::size_t p = 0; p < kRegexes.size(); ++p) {
    for (const std::string& block : blocks) {
      matching[kLiterals.size() + p] +=
          textproc::grep_regex(block, kRegexes[p]).matching_lines;
    }
  }
  job.regex_s = since(t0);
  c.expect(matching == oracle.matching,
           "grep line counts over the blocks = line scan of the files");

  std::vector<std::size_t> tags, tokens;
  t0 = Clock::now();
  for (std::size_t b = 0; b < blocks.size(); b += kTagEvery) {
    tags.push_back(tagger.tag_document(blocks[b]));
    job.tagged_bytes += blocks[b].size();
  }
  job.tag_s = since(t0);
  for (std::size_t b = 0; b < blocks.size(); b += kTagEvery) {
    tokens.push_back(oracle.tokens[b]);
  }
  c.expect(tags == tokens, "tag count = token count");
  c.expect(tagger.evaluate(gold) >= kTagAccuracyFloor,
           "tagging accuracy above the floor");

  t0 = Clock::now();
  const mr::JobResult wc =
      mr::LocalRunner(kThreads).run(mr::word_count_job(4), blocks, splits);
  job.wc_s = since(t0);
  job.wc_stats = wc.stats;
  bool same = wc.output.size() == oracle.words.size();
  auto it = oracle.words.begin();
  for (std::size_t i = 0; same && i < wc.output.size(); ++i, ++it) {
    same = wc.output[i].key == it->first &&
           wc.output[i].value == std::to_string(it->second);
  }
  c.expect(same, "word count over the blocks = count over the files");
  job.failure = c.failure();
  return job;
}

}  // namespace

void run_text_bytes(const Options& options, Run& run) {
  const Rng root(options.seed);
  const corpus::TextGenerator::Options text_options;

  std::vector<std::string> files;
  std::vector<std::string> blocks;
  pack::MergedCorpus merged;
  textproc::PosTagger tagger;
  std::vector<corpus::TaggedSentence> gold;
  Samples textgen_mb_s, materialize_s, merge_s;
  const double setup_s = median_setup(3, [&] {
    files.clear();
    blocks.clear();
    tagger = textproc::PosTagger();
    const Rng vocabulary = root.split("vocabulary");
    Clock::time_point t0 = Clock::now();
    corpus::TextGenerator gen(text_options, vocabulary, root.split("corpus"));
    Rng size_rng = root.split("sizes");
    const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
    std::vector<corpus::VirtualFile> meta;
    std::uint64_t total = 0;
    while (total < kCorpusBytes) {
      const std::uint64_t target = dist.sample(size_rng).count();
      std::string text;
      while (text.size() < target) {
        text += corpus::TextGenerator::render(gen.sentence());
        text += '\n';
      }
      meta.push_back(
          corpus::VirtualFile{files.size(), Bytes(text.size()), 1.0});
      total += text.size();
      files.push_back(std::move(text));
    }
    textgen_mb_s.add(static_cast<double>(total) / 1e6 / since(t0));

    tagger.train(corpus::TextGenerator(text_options, vocabulary,
                                       root.split("train"))
                     .tagged_corpus(5000));
    gold = corpus::TextGenerator(text_options, vocabulary,
                                 root.split("heldout"))
               .tagged_corpus(500);

    t0 = Clock::now();
    merged = pack::merge_to_unit(corpus::Corpus(std::move(meta)), kUnit);
    merge_s.add(since(t0));
    t0 = Clock::now();
    blocks = pack::materialize(merged, files);
    materialize_s.add(since(t0));
  });
  std::uint64_t corpus_bytes = 0;
  for (const std::string& f : files) corpus_bytes += f.size();
  const double corpus_mb = static_cast<double>(corpus_bytes) / 1e6;
  std::fprintf(stderr,
               "[text_bytes] set-up %.3f s: %zu files, %.1f MB, %zu blocks\n",
               setup_s, files.size(), corpus_mb, blocks.size());

  const Oracle oracle = build_oracle(files, blocks);
  const std::vector<mr::Split> splits = mr::combined_splits(blocks, kUnit);

  Samples untraced, traced, grep_mb_s, tag_mb_s, wc_mb_s;
  Samples literal_mb_s, regex_mb_s, map_s, shuffle_s, reduce_s, shuffle_mb;
  Samples files_mb_s, tokenize_mb_s, wc1_mb_s;
  run_rounds(options, [&](std::size_t round) {
    const bool traced_round = options.trace && round % 2 == 1;
    const Job job = run_job(blocks, splits, tagger, gold, oracle);
    (traced_round ? traced : untraced).add(job.wall_s());
    const double grep_mb = corpus_mb * static_cast<double>(
                                           kLiterals.size() + kRegexes.size());
    grep_mb_s.add(grep_mb / (job.literal_s + job.regex_s));
    tag_mb_s.add(static_cast<double>(job.tagged_bytes) / 1e6 / job.tag_s);
    wc_mb_s.add(corpus_mb / job.wc_s);
    if (!traced_round) {
      run.op(job.failure);
      return;
    }

    // Layer figures, outside the job's own time.
    literal_mb_s.add(corpus_mb * static_cast<double>(kLiterals.size()) /
                     job.literal_s);
    regex_mb_s.add(corpus_mb * static_cast<double>(kRegexes.size()) /
                   job.regex_s);
    map_s.add(job.wc_stats.map_wall.value());
    shuffle_s.add(job.wc_stats.shuffle_wall.value());
    reduce_s.add(job.wc_stats.reduce_wall.value());
    shuffle_mb.add(job.wc_stats.shuffle_bytes.megabytes());

    // The same bytes grepped as the original small files (Fig. 3).
    Clock::time_point t0 = Clock::now();
    std::size_t sink = 0;
    for (const std::string& p : kLiterals) {
      for (const std::string& f : files) {
        sink += textproc::grep_literal(f, p).matching_lines;
      }
    }
    for (const std::string& p : kRegexes) {
      for (const std::string& f : files) {
        sink += textproc::grep_regex(f, p).matching_lines;
      }
    }
    files_mb_s.add(grep_mb / since(t0));
    std::size_t expected = 0;
    for (const std::size_t m : oracle.matching) expected += m;
    Checks c;
    c.expect(job.failure.empty(), job.failure);
    c.expect(sink == expected, "grep over the original files = line scan");

    t0 = Clock::now();
    textproc::TokenArena arena;
    std::size_t tokens = 0;
    for (const std::string& block : blocks) {
      textproc::for_each_sentence(block, [&](std::string_view sentence) {
        tokens += arena.tokenize(sentence, true).size();
      });
    }
    tokenize_mb_s.add(corpus_mb / since(t0));
    std::size_t expected_tokens = 0;
    for (const std::size_t n : oracle.tokens) expected_tokens += n;
    c.expect(tokens == expected_tokens, "tokenizer token count");

    t0 = Clock::now();
    const mr::JobResult one =
        mr::LocalRunner(1).run(mr::word_count_job(4), blocks, splits);
    wc1_mb_s.add(corpus_mb / since(t0));
    c.expect(one.output.size() == oracle.words.size(),
             "single-thread word count = count over the files");
    run.op(c.failure());
  });

  run.metric("setup_s", setup_s);
  run.metric("peak_rss_mb", peak_rss_mb());
  run.metric("op_p50_ms", untraced.median() * 1e3);
  if (!options.trace) return;

  run.metric("trace.overhead_pct",
             100.0 * (traced.median() - untraced.median()) / untraced.median());
  run.metric("grep_mb_s", grep_mb_s.median());
  run.metric("tag_mb_s", tag_mb_s.median());
  run.metric("wordcount_mb_s", wc_mb_s.median());
  run.metric("corpus.textgen_mb_s", textgen_mb_s.median());
  run.metric("reshape.merge_s", merge_s.median());
  run.metric("reshape.blocks", static_cast<double>(merged.block_count()));
  run.metric("reshape.fill_factor", merged.fill_factor());
  run.metric("reshape.materialize_s", materialize_s.median());
  run.metric("textproc.grep_literal_mb_s", literal_mb_s.median());
  run.metric("textproc.grep_regex_mb_s", regex_mb_s.median());
  run.metric("textproc.grep_files_mb_s", files_mb_s.median());
  run.metric("textproc.tokenize_mb_s", tokenize_mb_s.median());
  run.metric("textproc.tag_mb_s", tag_mb_s.median());
  run.metric("textproc.tag_accuracy", tagger.evaluate(gold));
  run.metric("mapreduce.map_s", map_s.median());
  run.metric("mapreduce.shuffle_s", shuffle_s.median());
  run.metric("mapreduce.reduce_s", reduce_s.median());
  run.metric("mapreduce.shuffle_mb", shuffle_mb.median());
  run.metric("mapreduce.wordcount_1t_mb_s", wc1_mb_s.median());
}

}  // namespace perfbench
