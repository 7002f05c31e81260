#include "relap/gen/pipelines.hpp"

#include "relap/util/rng.hpp"

namespace relap::gen {

pipeline::Pipeline random_pipeline(const PipelineGenOptions& options, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> work(options.stages);
  std::vector<double> data(options.stages + 1);
  for (double& w : work) w = rng.uniform(options.work_min, options.work_max);
  for (double& d : data) d = rng.uniform(options.data_min, options.data_max);
  return pipeline::Pipeline(std::move(work), std::move(data));
}

pipeline::Pipeline random_uniform_pipeline(std::size_t stages, std::uint64_t seed) {
  PipelineGenOptions options;
  options.stages = stages;
  return random_pipeline(options, seed);
}

pipeline::Pipeline compute_heavy_pipeline(std::size_t stages, std::uint64_t seed) {
  PipelineGenOptions options;
  options.stages = stages;
  options.work_min = 50.0;
  options.work_max = 100.0;
  options.data_min = 1.0;
  options.data_max = 5.0;
  return random_pipeline(options, seed);
}

pipeline::Pipeline comm_heavy_pipeline(std::size_t stages, std::uint64_t seed) {
  PipelineGenOptions options;
  options.stages = stages;
  options.work_min = 1.0;
  options.work_max = 5.0;
  options.data_min = 50.0;
  options.data_max = 100.0;
  return random_pipeline(options, seed);
}

pipeline::Pipeline bimodal_pipeline(std::size_t stages, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> work(stages);
  std::vector<double> data(stages + 1);
  for (double& w : work) {
    w = rng.bernoulli(0.5) ? rng.uniform(1.0, 5.0) : rng.uniform(80.0, 120.0);
  }
  for (double& d : data) d = rng.uniform(1.0, 10.0);
  return pipeline::Pipeline(std::move(work), std::move(data));
}

pipeline::Pipeline jpeg_like_pipeline() {
  // Stages: RGB->YCbCr, chroma subsample, 8x8 block split, forward DCT,
  // quantization, zigzag + RLE, Huffman coding. Work in relative
  // operation counts per image, data in relative bytes between stages
  // (shrinking after subsampling and entropy steps).
  return pipeline::Pipeline(
      /*work=*/{12.0, 6.0, 2.0, 40.0, 10.0, 8.0, 18.0},
      /*data=*/{48.0, 48.0, 24.0, 24.0, 24.0, 24.0, 12.0, 6.0});
}

}  // namespace relap::gen
