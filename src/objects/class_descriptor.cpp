#include "objects/class_descriptor.h"

#include <cctype>
#include <mutex>

#include "objects/entity.h"
#include "objects/method_context.h"

namespace dedisys {

namespace {
std::string capitalize(std::string s) {
  if (!s.empty()) s[0] = static_cast<char>(std::toupper(s[0]));
  return s;
}
}  // namespace

Symbol intern(const std::string& text) {
  static std::mutex mutex;
  static std::unordered_map<std::string, Symbol> symbols;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto next = static_cast<Symbol>(symbols.size());
  return symbols.try_emplace(text, next).first->second;
}

MethodDescriptor& ClassDescriptor::define_method(MethodSignature sig,
                                                 MethodKind kind,
                                                 MethodBody body) {
  const std::string key = sig.key();
  auto [it, inserted] = methods_.emplace(
      key, MethodDescriptor{std::move(sig), kind, std::move(body)});
  if (!inserted) {
    throw ConfigError("duplicate method " + key + " on class " + name_);
  }
  MethodDescriptor& md = it->second;
  md.id = intern(key);
  auto& overloads = by_name_[md.signature.name];
  overloads.insert(
      std::upper_bound(overloads.begin(), overloads.end(), key,
                       [](const std::string& k, const MethodDescriptor* m) {
                         return k < m->signature.key();
                       }),
      &md);
  return md;
}

const MethodDescriptor* ClassDescriptor::find_method(
    const MethodSignature& sig) const {
  auto it = by_name_.find(sig.name);
  if (it == by_name_.end()) return nullptr;
  for (const MethodDescriptor* m : it->second) {
    if (m->signature.param_types == sig.param_types) return m;
  }
  return nullptr;
}

const MethodDescriptor& ClassDescriptor::resolve(const std::string& name,
                                                 std::size_t arity) const {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    for (const MethodDescriptor* m : it->second) {
      if (m->signature.param_types.size() == arity) return *m;
    }
  }
  throw ConfigError("no method " + name + "/" + std::to_string(arity) +
                    " on class " + name_);
}

void ClassDescriptor::define_property(const std::string& attr,
                                      Value default_value,
                                      const std::string& value_type) {
  define_attribute(attr, std::move(default_value));
  const std::string cap = capitalize(attr);
  define_method(
      MethodSignature{"get" + cap, {}}, MethodKind::Getter,
      [attr](Entity& self, MethodContext&, const std::vector<Value>&) {
        return self.get(attr);
      });
  define_method(
      MethodSignature{"set" + cap, {value_type}}, MethodKind::Setter,
      [attr](Entity& self, MethodContext&, const std::vector<Value>& args) {
        self.set(attr, args.at(0));
        return Value{};
      });
}

}  // namespace dedisys
