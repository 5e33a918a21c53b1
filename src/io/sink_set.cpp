#include "io/sink_set.h"

#include <fstream>
#include <sstream>

namespace lubt {

int SinkSet::AddSink(const Point& p) {
  sinks.push_back(p);
  return static_cast<int>(sinks.size()) - 1;
}

Status SinkSet::RemoveSink(int index) {
  if (index < 0 || index >= static_cast<int>(sinks.size())) {
    return Status::InvalidArgument("sink index " + std::to_string(index) +
                                   " out of range (have " +
                                   std::to_string(sinks.size()) + " sinks)");
  }
  sinks.erase(sinks.begin() + index);
  return Status::Ok();
}

Result<SinkSet> ParseSinkSet(const std::string& text) {
  SinkSet set;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank line
    if (kind == "name") {
      if (!(ls >> set.name)) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": name requires an identifier");
      }
    } else if (kind == "source" || kind == "sink") {
      double x = 0.0;
      double y = 0.0;
      if (!(ls >> x >> y)) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected two coordinates");
      }
      if (kind == "source") {
        if (set.source.has_value()) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": duplicate source");
        }
        set.source = Point{x, y};
      } else {
        set.sinks.push_back(Point{x, y});
      }
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown record '" + kind + "'");
    }
    std::string trailing;
    if (ls >> trailing) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": trailing token '" + trailing + "'");
    }
  }
  if (set.sinks.empty()) {
    return Status::InvalidArgument("sink set has no sinks");
  }
  return set;
}

std::string FormatSinkSet(const SinkSet& set) {
  std::ostringstream os;
  os.precision(17);
  if (!set.name.empty()) os << "name " << set.name << '\n';
  if (set.source.has_value()) {
    os << "source " << set.source->x << ' ' << set.source->y << '\n';
  }
  for (const Point& p : set.sinks) {
    os << "sink " << p.x << ' ' << p.y << '\n';
  }
  return os.str();
}

Result<SinkSet> LoadSinkSet(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSinkSet(buffer.str());
}

Status StoreSinkSet(const SinkSet& set, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot write " + path);
  }
  out << FormatSinkSet(set);
  return out.good() ? Status::Ok()
                    : Status::Internal("write failed for " + path);
}

}  // namespace lubt
