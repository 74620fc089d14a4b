#include "pim/pipeline.h"

#include <utility>

namespace pimhe {
namespace pim {

PipelineEngine::~PipelineEngine()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

std::size_t
PipelineEngine::submit(Job job)
{
    std::size_t seq;
    {
        std::lock_guard<std::mutex> lock(m_);
        seq = submitted_++;
        queue_.push_back(std::move(job));
        if (!started_) {
            started_ = true;
            worker_ = std::thread([this] { workerLoop(); });
        }
    }
    workCv_.notify_one();
    return seq;
}

void
PipelineEngine::waitFor(std::size_t seq)
{
    std::unique_lock<std::mutex> lock(m_);
    doneCv_.wait(lock, [&] { return completed_ > seq; });
}

void
PipelineEngine::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(m_);
            workCv_.wait(lock,
                         [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ with a drained queue
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(m_);
            completed_ += 1;
        }
        doneCv_.notify_all();
    }
}

} // namespace pim
} // namespace pimhe
