#include "accel/network.hpp"

#include <cmath>
#include <stdexcept>

#include "crypto/prng.hpp"

namespace neuropuls::accel {

namespace {

constexpr std::uint32_t kFormatVersion = 1;
// Smallest encoded layer: u32 inputs, u32 outputs, u8 activation, one
// weight and one bias.
constexpr std::size_t kMinLayerBytes = 4 + 4 + 1 + 8 + 8;

}  // namespace

std::size_t MlpNetwork::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers) {
    n += layer.weights.size() + layer.biases.size();
  }
  return n;
}

void MlpNetwork::validate() const {
  if (layers.empty()) {
    throw std::invalid_argument("MlpNetwork: no layers");
  }
  std::size_t previous_out = layers.front().inputs;
  for (const auto& layer : layers) {
    if (layer.inputs == 0 || layer.outputs == 0) {
      throw std::invalid_argument("MlpNetwork: zero-sized layer");
    }
    if (layer.inputs != previous_out) {
      throw std::invalid_argument("MlpNetwork: layer shapes do not chain");
    }
    if (layer.weights.size() != layer.inputs * layer.outputs ||
        layer.biases.size() != layer.outputs) {
      throw std::invalid_argument("MlpNetwork: buffer size mismatch");
    }
    previous_out = layer.outputs;
  }
}

double apply_activation(Activation activation, double x) {
  switch (activation) {
    case Activation::kLinear: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh: return std::tanh(x);
  }
  return x;
}

crypto::Bytes serialize_network(const MlpNetwork& network) {
  network.validate();
  crypto::Bytes out;
  crypto::append_u32_be(out, kFormatVersion);
  crypto::append_u32_be(out, static_cast<std::uint32_t>(network.layers.size()));
  for (const auto& layer : network.layers) {
    crypto::append_u32_be(out, static_cast<std::uint32_t>(layer.inputs));
    crypto::append_u32_be(out, static_cast<std::uint32_t>(layer.outputs));
    out.push_back(static_cast<std::uint8_t>(layer.activation));
    for (double w : layer.weights) crypto::append_f64_le(out, w);
    for (double b : layer.biases) crypto::append_f64_le(out, b);
  }
  return out;
}

MlpNetwork deserialize_network(crypto::ByteView blob) {
  crypto::ByteReader reader(blob, "network blob");
  if (reader.u32() != kFormatVersion) reader.fail("unsupported version");
  const std::uint32_t layer_count = reader.u32();
  if (layer_count == 0 || layer_count > 1024) {
    reader.fail("implausible layer count");
  }
  MlpNetwork network;
  network.layers.resize(reader.count(layer_count, kMinLayerBytes));
  for (std::size_t l = 0; l < network.layers.size(); ++l) {
    Layer& layer = network.layers[l];
    layer.inputs = reader.u32();
    layer.outputs = reader.u32();
    if (layer.inputs == 0 || layer.outputs == 0 ||
        layer.inputs > 1u << 20 || layer.outputs > 1u << 20) {
      reader.fail("implausible layer shape");
    }
    if (l > 0 && layer.inputs != network.layers[l - 1].outputs) {
      reader.fail("layer shapes do not chain");
    }
    layer.activation = static_cast<Activation>(reader.u8());
    if (static_cast<std::uint8_t>(layer.activation) > 3) {
      reader.fail("unknown activation");
    }
    layer.weights.resize(reader.count(layer.inputs * layer.outputs, 8));
    for (auto& w : layer.weights) w = reader.f64();
    layer.biases.resize(reader.count(layer.outputs, 8));
    for (auto& b : layer.biases) b = reader.f64();
  }
  if (!reader.done()) reader.fail("trailing bytes");
  return network;
}

crypto::Bytes serialize_vector(const std::vector<double>& values) {
  crypto::Bytes out;
  crypto::append_u32_be(out, static_cast<std::uint32_t>(values.size()));
  for (double v : values) crypto::append_f64_le(out, v);
  return out;
}

std::vector<double> deserialize_vector(crypto::ByteView blob) {
  crypto::ByteReader reader(blob, "vector blob");
  const std::uint32_t count = reader.u32();
  if (count > 1u << 24) reader.fail("implausible size");
  std::vector<double> values(reader.count(count, 8));
  for (auto& v : values) v = reader.f64();
  if (!reader.done()) reader.fail("trailing bytes");
  return values;
}

MlpNetwork make_random_network(const std::vector<std::size_t>& layer_sizes,
                               std::uint64_t seed,
                               Activation hidden_activation) {
  if (layer_sizes.size() < 2) {
    throw std::invalid_argument("make_random_network: need >= 2 sizes");
  }
  rng::Gaussian g(seed);
  MlpNetwork network;
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    Layer layer;
    layer.inputs = layer_sizes[l];
    layer.outputs = layer_sizes[l + 1];
    layer.activation = (l + 2 == layer_sizes.size()) ? Activation::kLinear
                                                     : hidden_activation;
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.inputs));
    layer.weights.resize(layer.inputs * layer.outputs);
    for (auto& w : layer.weights) w = g.next(0.0, scale);
    layer.biases.assign(layer.outputs, 0.0);
    network.layers.push_back(std::move(layer));
  }
  return network;
}

}  // namespace neuropuls::accel
