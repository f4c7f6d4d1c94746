#include "reshape/merge.hpp"

#include <algorithm>
#include <span>
#include <thread>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "reshape/pack_index.hpp"

namespace reshape::pack {

namespace {
/// A block's structural digest, fed one member id at a time and finished
/// with the block's used size — the one definition behind block_digest and
/// the digests the merge builds as it places files.
class BlockDigest {
 public:
  void add(std::uint64_t id) { d_.update_u64(id); }
  [[nodiscard]] std::uint64_t finish(Bytes used) {
    return d_.update_u64(used.count()).value();
  }

 private:
  Digest64 d_;
};

/// First-fit over the files themselves, in `order` (no Item copy).  Each
/// block's digest grows as its files are placed and is finished once the
/// pass is done, so no second walk over the member ids is needed.
MergedCorpus pack_files(std::span<const corpus::VirtualFile> files,
                        Bytes unit, ItemOrder order) {
  MergedCorpus merged;
  merged.unit = unit;
  std::vector<BlockDigest> open;  // one per block
  std::vector<corpus::VirtualFile> sorted;
  place_first_fit(in_order(files, order, sorted), unit,
                  [&merged, &open, unit](std::size_t at,
                                         const corpus::VirtualFile& f) {
                    add_to_bin(merged.blocks, at, f, unit);
                    if (at == open.size()) open.emplace_back();
                    open[at].add(f.id);
                  });
  merged.digests.reserve(open.size());
  for (std::size_t b = 0; b < open.size(); ++b) {
    merged.digests.push_back(open[b].finish(merged.blocks[b].used));
  }
  return merged;
}

/// Packing-quality tallies for one finished merge.
void record_merge_metrics(const MergedCorpus& merged) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("binpack.bins").add(merged.blocks.size());
  m.gauge("binpack.fill_factor").set(merged.fill_factor());
  auto& fill = m.histogram("binpack.block_fill",
                           {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0});
  const double unit = merged.unit.as_double();
  if (unit > 0.0) {
    for (const Bin& bin : merged.blocks) {
      fill.observe(bin.used.as_double() / unit);
    }
  }
}
}  // namespace

std::uint64_t block_digest(const Bin& bin) {
  BlockDigest d;
  for (const std::uint64_t id : bin.item_ids) d.add(id);
  return d.finish(bin.used);
}

std::vector<std::uint64_t> content_digests(
    const std::vector<std::string>& blocks) {
  std::vector<std::uint64_t> digests;
  digests.reserve(blocks.size());
  for (const std::string& block : blocks) {
    digests.push_back(digest_bytes(block));
  }
  return digests;
}

std::vector<std::size_t> verify_blocks(
    const std::vector<std::string>& blocks,
    const std::vector<std::uint64_t>& expected) {
  RESHAPE_REQUIRE(blocks.size() == expected.size(),
                  "digest count does not match block count");
  std::vector<std::size_t> mismatched;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (digest_bytes(blocks[i]) != expected[i]) mismatched.push_back(i);
  }
  return mismatched;
}

Bytes MergedCorpus::total_volume() const {
  Bytes total{0};
  for (const Bin& b : blocks) total += b.used;
  return total;
}

Bytes MergedCorpus::largest_block() const {
  Bytes largest{0};
  for (const Bin& b : blocks) largest = std::max(largest, b.used);
  return largest;
}

double MergedCorpus::fill_factor() const {
  if (blocks.empty() || unit.count() == 0) return 0.0;
  return total_volume().as_double() /
         (static_cast<double>(blocks.size()) * unit.as_double());
}

MergedCorpus merge_to_unit(const corpus::Corpus& corpus, Bytes unit,
                           ItemOrder order) {
  const obs::WallSpan span("reshape", "merge_sequential");
  MergedCorpus merged = pack_files(corpus.files(), unit, order);
  record_merge_metrics(merged);
  return merged;
}

MergedCorpus merge_to_unit_parallel(const corpus::Corpus& corpus, Bytes unit,
                                    ItemOrder order, std::size_t shards) {
  RESHAPE_REQUIRE(unit.count() > 0, "unit size must be nonzero");
  const std::vector<corpus::VirtualFile>& files = corpus.files();
  if (shards == 0) {
    shards = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shards = std::min(shards, std::max<std::size_t>(files.size(), 1));
  if (shards <= 1) return merge_to_unit(corpus, unit, order);
  const obs::WallSpan span("reshape", "merge_parallel");

  // Shard s owns files [s * grain, (s + 1) * grain); the chunked
  // parallel_for hands each worker one whole shard, so the per-task
  // dispatch cost is amortized over thousands of placements.
  const std::size_t grain = (files.size() + shards - 1) / shards;
  std::vector<MergedCorpus> parts((files.size() + grain - 1) / grain);
  ThreadPool pool(std::min(
      shards, std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  pool.parallel_for(files.size(), grain,
                    [&files, &parts, grain, unit, order](std::size_t begin,
                                                         std::size_t end) {
                      const obs::WallSpan shard_span("reshape", "shard");
                      parts[begin / grain] = pack_files(
                          std::span(files).subspan(begin, end - begin), unit,
                          order);
                    });

  MergedCorpus merged;
  merged.unit = unit;
  std::size_t blocks = 0;
  for (const MergedCorpus& part : parts) blocks += part.block_count();
  merged.blocks.reserve(blocks);
  merged.digests.reserve(blocks);
  for (MergedCorpus& part : parts) {
    for (Bin& bin : part.blocks) merged.blocks.push_back(std::move(bin));
    merged.digests.insert(merged.digests.end(), part.digests.begin(),
                          part.digests.end());
  }
  record_merge_metrics(merged);
  return merged;
}

MergedCorpus derive_multiple(const MergedCorpus& base, std::uint64_t m) {
  RESHAPE_REQUIRE(m >= 1, "multiple must be at least 1");
  if (m == 1) return base;
  MergedCorpus merged;
  merged.unit = base.unit * m;
  for (std::size_t i = 0; i < base.blocks.size(); i += m) {
    Bin combined;
    combined.capacity = merged.unit;
    const std::size_t end = std::min(i + m, base.blocks.size());
    for (std::size_t j = i; j < end; ++j) {
      combined.used += base.blocks[j].used;
      combined.item_ids.insert(combined.item_ids.end(),
                               base.blocks[j].item_ids.begin(),
                               base.blocks[j].item_ids.end());
    }
    merged.blocks.push_back(std::move(combined));
    merged.digests.push_back(block_digest(merged.blocks.back()));
  }
  return merged;
}

std::vector<std::string> materialize(const MergedCorpus& merged,
                                     const std::vector<std::string>& texts) {
  std::vector<std::string> blocks;
  blocks.reserve(merged.blocks.size());
  for (const Bin& bin : merged.blocks) {
    std::string content;
    for (const std::uint64_t id : bin.item_ids) {
      RESHAPE_REQUIRE(id < texts.size(), "file id outside texts");
      content += texts[id];
    }
    blocks.push_back(std::move(content));
  }
  return blocks;
}

}  // namespace reshape::pack
