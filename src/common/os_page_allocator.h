// Allocator for large buffers that come and go over a process's life.
//
// glibc serves a request above its mmap threshold with a fresh mapping,
// but the first time such a mapping is freed it raises the threshold to
// that size. From then on a buffer of the same size comes from the arena
// of whichever thread asks for it, and its pages stay resident in that
// arena after the free. A process that builds and drops such buffers on
// pool threads then holds as many of them as there have been arenas that
// served one, which depends on how the threads were scheduled: its peak
// resident memory differs from one run to the next. This allocator maps
// whole pages from the kernel and unmaps them on deallocation, so the
// memory a buffer adds is resident exactly while it is alive.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace camdn {

template <typename T>
struct os_page_allocator {
    using value_type = T;

    os_page_allocator() = default;
    template <typename U>
    os_page_allocator(const os_page_allocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
        void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) throw std::bad_alloc();
        return static_cast<T*>(p);
    }

    void deallocate(T* p, std::size_t n) noexcept {
        ::munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const os_page_allocator<U>&) const noexcept {
        return true;
    }
    template <typename U>
    bool operator!=(const os_page_allocator<U>&) const noexcept {
        return false;
    }
};

}  // namespace camdn
